(* What one run of a workload reports: item counts, every metric by name
   with its unit, and human-readable notes for stderr. *)

type metric = { name : string; value : float; unit_ : string }

type t = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  notes : string list;
}

let m name unit_ value = { name; value; unit_ }

(* Per-layer metrics every workload prints; a layer a workload never calls
   reads 0. *)
let layer_names =
  [
    ("dfg.parse_ms", "ms");
    ("analysis.pre_ms", "ms");
    ("core.mfsa_ms", "ms");
    ("core.mfs_ms", "ms");
    ("rtl.elaborate_ms", "ms");
    ("analysis.post_schedule_ms", "ms");
    ("rtl.controller_ms", "ms");
    ("rtl.check_ms", "ms");
    ("analysis.post_rtl_ms", "ms");
    ("sim.equiv_ms", "ms");
    ("rtl.verilog_ms", "ms");
    ("design.other_ms", "ms");
    ("core.mfsa_iterations", "count");
    ("core.mfs_attempts", "count");
    ("rtl.verilog_bytes", "bytes");
    ("serve.ping_ms", "ms");
    ("serve.hit_ms", "ms");
    ("serve.miss_ms", "ms");
    ("explore.cache_hit_ratio", "ratio");
    ("serve.library_cache_hit_ratio", "ratio");
    ("serve.shed", "count");
    ("batch.pool_jobs", "count");
    ("trace.overhead_pct", "%");
  ]

(* The full per-layer list, with the workload's own values filled in. *)
let layers own =
  List.map
    (fun (name, unit_) ->
      m name unit_ (Option.value ~default:0. (List.assoc_opt name own)))
    layer_names

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let to_json t =
  let metric x =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (number x.value)
      x.unit_
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    t.correct t.attempted t.failed
    (String.concat ", " (List.map metric t.metrics))
