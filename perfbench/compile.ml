(* One design from DFG source text to a verified datapath, controller and
   Verilog text: the calls `synth mfsa --simulate --verilog` makes, plus the
   analysis gates the harness driver runs around them. Each call into a
   layer is wrapped in a span named after that layer. *)

type engine =
  | Mfsa of Core.Mfsa.style
  | Mfs_colbind
      (** MFS schedule plus column-packed single-function binding: the
          path the harness fallback and explore's MFS points take. *)

type design = {
  name : string;
  source : string;  (** DFG source text. *)
  slack : int;  (** Control steps above the critical path. *)
  engine : engine;
}

type result = {
  area : float;  (** [Rtl.Cost.total], um^2. *)
  regs : int;  (** [Rtl.Cost.n_regs]. *)
  digest : string;
      (** MFSA: digest of the iteration list; MFS: digest of the schedule
          and binding. Equal digests mean the same design decisions. *)
  iterations : int;  (** MFSA iterations, 0 on the MFS path. *)
  attempts : int;  (** MFS attempts (restarts + 1), 0 on the MFSA path. *)
  verilog_bytes : int;
  problems : string list;  (** Failed checks; empty when the design passed. *)
}

exception Stop of string

let span = Trace.with_span

let diag what = function
  | Ok v -> v
  | Error d -> raise (Stop (what ^ ": " ^ Diag.to_string d))

let msg what = function Ok v -> v | Error m -> raise (Stop (what ^ ": " ^ m))

let digest_iterations its =
  let b = Buffer.create 1024 in
  List.iter
    (fun it ->
      Printf.bprintf b "%d %d %d %b %b %h %h\n" it.Core.Mfsa.it_node
        it.Core.Mfsa.it_step it.Core.Mfsa.it_alu it.Core.Mfsa.it_fresh
        it.Core.Mfsa.it_widened it.Core.Mfsa.it_energy it.Core.Mfsa.it_worst)
    its;
  Digest.to_hex (Digest.string (Buffer.contents b))

let digest_binding (dp : Rtl.Datapath.t) =
  let b = Buffer.create 1024 in
  Array.iteri
    (fun i s -> Printf.bprintf b "%d %d %d\n" i s dp.Rtl.Datapath.alu_of.(i))
    dp.Rtl.Datapath.start;
  Digest.to_hex (Digest.string (Buffer.contents b))

let lint_errors what findings =
  List.map
    (fun f -> what ^ ": " ^ Diag.to_string f.Analysis.Finding.diag)
    (Analysis.Finding.errors findings)

let run_exn d =
  let g =
    diag "parse" (span "dfg.parse" (fun () -> Dfg.Parser.parse d.source))
  in
  let lib = Celllib.Ncr.for_graph g in
  let config = Core.Config.of_library lib in
  let cs = Core.Timeframe.min_cs config g + d.slack in
  (match
     lint_errors "lint-pre"
       (span "analysis.pre" (fun () -> Analysis.Runner.pre ~cs config g))
   with
  | [] -> ()
  | e :: _ -> raise (Stop e));
  let delay i = Core.Config.delay config (Dfg.Graph.node g i).Dfg.Graph.kind in
  let schedule, dp, cost, trace, iterations, attempts, digest =
    match d.engine with
    | Mfsa style ->
        let o =
          diag "mfsa"
            (span "core.mfsa" (fun () ->
                 Core.Mfsa.run ~config ~style ~library:lib ~cs g))
        in
        ( o.Core.Mfsa.schedule,
          o.Core.Mfsa.datapath,
          o.Core.Mfsa.cost,
          None,
          List.length o.Core.Mfsa.iterations,
          0,
          digest_iterations o.Core.Mfsa.iterations )
    | Mfs_colbind ->
        let o =
          diag "mfs"
            (span "core.mfs" (fun () ->
                 Core.Mfs.run ~config g (Core.Mfs.Time { cs })))
        in
        let dp =
          msg "colbind"
            (span "rtl.elaborate" (fun () ->
                 Harness.Driver.colbind_datapath lib config g
                   o.Core.Mfs.schedule))
        in
        ( o.Core.Mfs.schedule,
          dp,
          Rtl.Cost.of_datapath lib dp,
          Some o.Core.Mfs.trace,
          0,
          o.Core.Mfs.restarts + 1,
          digest_binding dp )
  in
  let post_schedule =
    lint_errors "lint-post-schedule"
      (span "analysis.post_schedule" (fun () ->
           Analysis.Runner.post_schedule ?trace
             schedule))
  in
  let ctrl =
    msg "controller"
      (span "rtl.controller" (fun () -> Rtl.Controller.generate dp ~delay))
  in
  let check =
    match
      span "rtl.check" (fun () ->
          Rtl.Check.datapath
            ~style2:(d.engine = Mfsa Core.Mfsa.No_self_loop)
            ~steps_overlap:
              (Core.Grid.steps_overlap
                 ~latency:config.Core.Config.functional_latency)
            dp ~delay)
    with
    | Ok () -> []
    | Error ds -> List.map (fun e -> "check: " ^ Diag.to_string e) ds
  in
  let post_rtl =
    lint_errors "lint-post-rtl"
      (span "analysis.post_rtl" (fun () ->
           Analysis.Runner.post_rtl ~share_mutex:config.Core.Config.share_mutex
             ?latency:config.Core.Config.functional_latency dp ctrl ~delay))
  in
  let equiv =
    match span "sim.equiv" (fun () -> Sim.Equiv.check_random dp ctrl) with
    | Ok () -> []
    | Error e -> [ "equiv: " ^ Diag.to_string e ]
  in
  let verilog = span "rtl.verilog" (fun () -> Rtl.Verilog.emit dp ctrl) in
  {
    area = cost.Rtl.Cost.total;
    regs = cost.Rtl.Cost.n_regs;
    digest;
    iterations;
    attempts;
    verilog_bytes = String.length verilog;
    problems = post_schedule @ check @ post_rtl @ equiv;
  }

let failed m =
  {
    area = 0.;
    regs = 0;
    digest = "";
    iterations = 0;
    attempts = 0;
    verilog_bytes = 0;
    problems = [ m ];
  }

let run ~group d =
  span ~group "design" (fun () ->
      try run_exn d with
      | Stop m -> failed m
      | e -> failed ("exception: " ^ Printexc.to_string e))
