(* The two synthesis workloads: timed passes over a seeded design set, every
   design checked, every pass compared with the first. Untraced runs split
   each pass between two forked processes; traced runs keep every pass in
   this process. *)

let now = Unix.gettimeofday

let spec =
  lazy
    (match
       Batch.Jsonl.parse
         (In_channel.with_open_bin "perfbench/spec.json" In_channel.input_all)
     with
    | Error e -> failwith ("perfbench/spec.json: " ^ e)
    | Ok doc -> doc)

(* Expected areas of the classic designs, stored with the benchmark. *)
let expected_areas () =
  match Batch.Jsonl.member "expected_area_um2" (Lazy.force spec) with
  | Some (Batch.Jsonl.Obj kvs) ->
      List.filter_map
        (fun (k, v) -> Option.map (fun a -> (k, a)) (Batch.Jsonl.to_float v))
        kvs
  | _ -> failwith "perfbench/spec.json: no expected_area_um2 object"

let total f (results : Compile.result array) =
  float_of_int (Array.fold_left (fun a r -> a + f r) 0 results)

(* Compile the designs [idxs] and time each: (index, seconds, result). *)
let compile_each designs ~pass idxs =
  let n = Array.length designs in
  List.map
    (fun i ->
      let t = now () in
      let r = Compile.run ~group:((pass * n) + i) designs.(i) in
      (i, now () -. t, r))
    idxs

(* Untraced passes are split between two compile processes, one per core,
   kept for the whole run. The halves swap every pass, so each design is
   timed on both cores (other load on a shared host slows them
   independently, and a design's fastest time then comes from whichever was
   quieter), and every design is compiled again by a process that compiled
   it before, so the comparison with the first pass also catches state that
   leaks between calls. *)
type worker = { pid : int; to_w : out_channel; from_w : in_channel }

let half ~n ~pass k =
  List.filter (fun i -> (i + pass) mod 2 = k) (List.init n Fun.id)

(* A worker answers each [Some (pass, indices)] with the timed results and
   its heap high-water mark, and exits on [None]. It compacts its heap
   before each pass, so that every pass starts from the state of a fresh
   process, as a one-shot `synth mfsa` does; without this, per-design
   times creep up by about 12% over a run. *)
let spawn_worker designs ~others =
  let cmd_r, cmd_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      List.iter (fun w -> close_out_noerr w.to_w; close_in_noerr w.from_w) others;
      Unix.close cmd_w;
      Unix.close out_r;
      let ic = Unix.in_channel_of_descr cmd_r in
      let oc = Unix.out_channel_of_descr out_w in
      let rec serve () =
        match (Marshal.from_channel ic : (int * int list) option) with
        | Some (pass, idxs) ->
            Gc.compact ();
            let out = compile_each designs ~pass idxs in
            Marshal.to_channel oc (out, Stat.top_heap_mb ()) [];
            flush oc;
            serve ()
        | None | (exception End_of_file) -> ()
      in
      serve ();
      Unix._exit 0
  | pid ->
      Unix.close cmd_r;
      Unix.close out_w;
      {
        pid;
        to_w = Unix.out_channel_of_descr cmd_w;
        from_w = Unix.in_channel_of_descr out_r;
      }

let spawn_workers designs =
  List.fold_left
    (fun others _ -> others @ [ spawn_worker designs ~others ])
    [] [ 0; 1 ]

let stop_workers workers =
  List.iter
    (fun w ->
      try
        Marshal.to_channel w.to_w None [];
        close_out w.to_w
      with Sys_error _ -> close_out_noerr w.to_w)
    workers;
  List.iter
    (fun w ->
      close_in_noerr w.from_w;
      ignore (Unix.waitpid [] w.pid))
    workers

(* One untraced pass over both workers: the timed results and the larger
   heap high-water mark. *)
let parallel_pass workers ~n ~pass =
  List.iteri
    (fun k w ->
      try
        Marshal.to_channel w.to_w (Some (pass, half ~n ~pass k)) [];
        flush w.to_w
      with Sys_error _ -> ())
    workers;
  let parts =
    List.mapi
      (fun k w ->
        match (Marshal.from_channel w.from_w : _ * float) with
        | v -> v
        | exception (End_of_file | Failure _ | Sys_error _) ->
            ( List.map
                (fun i -> (i, infinity, Compile.failed "compile process died"))
                (half ~n ~pass k),
              0. ))
      workers
  in
  ( List.concat_map fst parts,
    List.fold_left (fun a (_, heap) -> Float.max a heap) 0. parts )

let layer_of_span = function
  | "design" -> "design.other_ms"
  | name -> name ^ "_ms"

(* Untraced passes whose compile times count, from spec.json: each design's
   cost is its fastest compile over the first [timed_passes] untraced
   passes, so the statistic does not depend on how many passes fit into
   the run. A run that has not reached them by --seconds goes on until it
   has, but never past [max_seconds]. *)
let timed_passes () =
  match Batch.Jsonl.int "timed_passes" (Lazy.force spec) with
  | Some k when k > 0 -> k
  | _ -> failwith "perfbench/spec.json: no positive timed_passes"

let max_seconds = 150.

(* Set-up runs this many times before the first pass, and once more after
   every pass; its median is reported. Host load on a shared machine
   drifts over a run, and set-ups taken only before the first pass spread
   far more between runs (perfbench/README.md, set A). *)
let setup_reps = 5

let run ~timed_passes:k ~designs_of ~seed ~seconds ~trace =
  let expected = expected_areas () in
  let k = match k with Some k -> k | None -> timed_passes () in
  (* Set-up is turning the seed into DFG source text. *)
  let setups = ref [] in
  let set_up () =
    let t0 = now () in
    let ds = designs_of ~seed in
    setups := (now () -. t0) :: !setups;
    ds
  in
  let designs =
    Array.of_list (List.hd (List.init setup_reps (fun _ -> set_up ())))
  in
  let n = Array.length designs in
  let first = ref None in
  (* Fastest compile of each design over the counted passes. The compile
     is deterministic and other load on the machine only ever adds time,
     so the fastest of a design's compiles is the steady measure of its
     cost; the end-to-end times are taken over these. *)
  let best = Array.make n infinity in
  let heap = ref 0. in
  let untraced = ref [] and traced = ref [] in
  let attempted = ref 0 and failed = ref 0 and problems = ref [] in
  let fail name m =
    incr failed;
    if List.length !problems < 10 then
      problems := (name ^ ": " ^ m) :: !problems
  in
  let counts = ref [] in
  let workers = if trace then [] else spawn_workers designs in
  Fun.protect ~finally:(fun () -> stop_workers workers) @@ fun () ->
  let t_start = now () in
  let pass = ref 0 in
  let finished () =
    let t = now () -. t_start in
    t >= max_seconds
    || t >= seconds && !pass >= 2
       && (trace || List.length !untraced >= k)
  in
  while not (finished ()) do
    (* A traced run keeps every pass in this process, so that its traced
       and untraced passes compare like with like. *)
    let on = trace && !pass mod 2 = 1 in
    Trace.enabled := on;
    let t0 = now () in
    let timed, h =
      if trace then
        ( Trace.with_span "pass" (fun () ->
              compile_each designs ~pass:!pass (List.init n Fun.id)),
          0. )
      else parallel_pass workers ~n ~pass:!pass
    in
    let dt = now () -. t0 in
    Trace.enabled := false;
    let timed = List.sort (fun (i, _, _) (j, _, _) -> compare i j) timed in
    let results = Array.of_list (List.map (fun (_, _, r) -> r) timed) in
    if (not on) && List.length !untraced < k then begin
      List.iter (fun (i, t, _) -> best.(i) <- Float.min best.(i) t) timed;
      heap := Float.max !heap h
    end;
    if on then traced := dt :: !traced else untraced := dt :: !untraced;
    let base = match !first with Some b -> b | None -> results in
    first := Some base;
    Array.iteri
      (fun i (r : Compile.result) ->
        let name = designs.(i).Compile.name in
        incr attempted;
        let b = base.(i) in
        match r.problems with
        | m :: _ -> fail name m
        | [] ->
            if (r.area, r.regs, r.digest) <> (b.area, b.regs, b.digest) then
              fail name "design differs from the first pass"
            else (
              match List.assoc_opt name expected with
              | Some a when a <> r.area ->
                  fail name
                    (Printf.sprintf "area %g um2, expected %g" r.area a)
              | _ -> ()))
      results;
    if on then
      counts :=
        [
          ("core.mfsa_iterations", total (fun r -> r.iterations) results);
          ("core.mfs_attempts", total (fun r -> r.attempts) results);
          ("rtl.verilog_bytes", total (fun r -> r.verilog_bytes) results);
        ];
    ignore (Sys.opaque_identity (set_up ()));
    incr pass
  done;
  let base = Option.get !first in
  let area =
    Array.fold_left (fun a (r : Compile.result) -> a +. r.area) 0. base
  in
  let regs = total (fun r -> r.regs) base in
  let best = Array.to_list best in
  let pct, tail = Stat.tail best in
  let notes =
    [
      Printf.sprintf "%d designs, %d passes (%d untraced, %d traced)" n !pass
        (List.length !untraced) (List.length !traced);
      Printf.sprintf "pass wall times (s): untraced %s; traced %s"
        (String.concat " " (List.rev_map (Printf.sprintf "%.3f") !untraced))
        (String.concat " " (List.rev_map (Printf.sprintf "%.3f") !traced));
      Printf.sprintf
        "fastest design compile over the first %d untraced passes%s: sum \
         %.3f s, p50 %.2f ms, p%.1f %.2f ms over %d designs; median pass \
         wall time %.3f s"
        k
        (if trace || List.length !untraced >= k then ""
         else Printf.sprintf " (only %d ran)" (List.length !untraced))
        (Stat.sum best)
        (1000. *. Stat.median best)
        pct (1000. *. tail) n (Stat.median !untraced);
    ]
    @ List.rev !problems
  in
  let metrics =
    if not trace then
      [
        Report.m "pass_s" "s" (Stat.sum best);
        Report.m "p50_ms" "ms" (1000. *. Stat.median best);
        Report.m "tail_ms" "ms" (1000. *. tail);
        Report.m "area_um2" "um2" area;
        Report.m "registers" "count" regs;
        Report.m "peak_mem_mb" "MiB" !heap;
        Report.m "setup_s" "s" (Stat.median !setups);
      ]
    else begin
      (* Self time per traced pass, by layer; the median over traced
         passes. *)
      let per_pass = Trace.self_by_root ~root_name:"pass" in
      let names =
        List.sort_uniq compare
          (List.concat_map
             (fun tbl -> Hashtbl.fold (fun k _ acc -> k :: acc) tbl [])
             per_pass)
        |> List.filter (( <> ) "pass")
      in
      let self =
        List.map
          (fun name ->
            ( layer_of_span name,
              1000.
              *. Stat.median
                   (List.map
                      (fun tbl ->
                        Option.value ~default:0. (Hashtbl.find_opt tbl name))
                      per_pass) ))
          names
      in
      let overhead =
        100.
        *. (Stat.median !traced -. Stat.median !untraced)
        /. Stat.median !untraced
      in
      Report.layers
        ((("trace.overhead_pct", overhead) :: self)
        @ !counts)
    end
  in
  {
    Report.correct = !failed = 0;
    attempted = !attempted;
    failed = !failed;
    metrics;
    notes;
  }
