(* End-to-end benchmark of the synthesis stack.

     perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
     perfbench/run.sh --self-test

   Workloads: mfsa-mid and rtl-large compile seeded design sets (DFG text
   to verified datapath, controller and Verilog) through the library;
   serve-mixed drives a real `synth serve` daemon. With --trace 0 the last stdout line
   carries the end-to-end metrics; with --trace 1 it carries per-layer self
   times from spans around each layer call, and the spans are written to
   .perfbench/trace-NAME.json. Notes go to stderr. *)

(* A short run (the self-test) counts 3 synthesis passes instead of
   spec.json's [timed_passes]. *)
let workloads ~short =
  let timed_passes = if short then Some 3 else None in
  [
    ("mfsa-mid", Synthesis.run ~timed_passes ~designs_of:Designs.mfsa_mid);
    ("rtl-large", Synthesis.run ~timed_passes ~designs_of:Designs.rtl_large);
    ("serve-mixed", Serve_mix.run);
  ]

let run_one ?(short = false) ~workload ~seed ~seconds ~trace () =
  let workloads = workloads ~short in
  let run =
    match List.assoc_opt workload workloads with
    | Some run -> run
    | None ->
        failwith
          (Printf.sprintf "unknown workload %S (one of: %s)" workload
             (String.concat ", " (List.map fst workloads)))
  in
  let report = run ~seed ~seconds ~trace in
  if trace then begin
    if not (Sys.file_exists Serve_mix.run_root) then
      Sys.mkdir Serve_mix.run_root 0o755;
    Trace.write
      (Filename.concat Serve_mix.run_root ("trace-" ^ workload ^ ".json"))
  end;
  Trace.count := 0;
  report

(* Metric names and units declared in BENCHMARK.json, by section. *)
let declared section =
  let doc =
    match
      Batch.Jsonl.parse
        (In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all)
    with
    | Ok d -> d
    | Error e -> failwith ("BENCHMARK.json: " ^ e)
  in
  match Batch.Jsonl.member section doc with
  | Some (Batch.Jsonl.List xs) ->
      List.filter_map
        (fun x ->
          match (Batch.Jsonl.str "name" x, Batch.Jsonl.str "unit" x) with
          | Some n, Some u -> Some (n, u)
          | _ -> None)
        xs
  | _ -> failwith ("BENCHMARK.json: no " ^ section ^ " list")

(* Short runs of every workload in both modes: each must pass its own
   checks and print exactly the metrics BENCHMARK.json declares, with the
   declared units. *)
let self_test () =
  let ok = ref true in
  List.iter
    (fun (workload, _) ->
      List.iter
        (fun (trace, section) ->
          let r = run_one ~short:true ~workload ~seed:1 ~seconds:1. ~trace () in
          let printed =
            List.map (fun x -> (x.Report.name, x.Report.unit_)) r.Report.metrics
          in
          let want = declared section in
          let verdict =
            if not r.Report.correct then "FAILED its output checks"
            else if List.sort compare printed <> List.sort compare want then
              "prints metrics other than those declared in " ^ section
            else "ok"
          in
          if verdict <> "ok" then ok := false;
          Printf.printf "self-test %s --trace %d: %s\n%!" workload
            (Bool.to_int trace) verdict)
        [ (false, "end_to_end"); (true, "per_layer") ])
    (workloads ~short:true);
  if not !ok then exit 1

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let args = Array.to_list Sys.argv |> List.tl in
  if args = [ "--self-test" ] then self_test ()
  else begin
    let rec opts acc = function
      | key :: v :: rest
        when List.mem key [ "--workload"; "--seed"; "--seconds"; "--trace" ] ->
          opts ((key, v) :: acc) rest
      | [] -> acc
      | bad :: _ ->
          prerr_endline ("perfbench: unexpected argument " ^ bad);
          exit 2
    in
    let o = opts [] args in
    let get key conv =
      match Option.bind (List.assoc_opt key o) conv with
      | Some v -> v
      | None ->
          prerr_endline ("perfbench: missing or malformed " ^ key);
          exit 2
    in
    let workload = get "--workload" Option.some in
    let seed = get "--seed" int_of_string_opt in
    let seconds = get "--seconds" float_of_string_opt in
    let trace =
      get "--trace" (function
        | "0" -> Some false
        | "1" -> Some true
        | _ -> None)
    in
    let r = run_one ~workload ~seed ~seconds ~trace () in
    List.iter prerr_endline r.Report.notes;
    print_endline (Report.to_json r)
  end
