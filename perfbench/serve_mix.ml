(* The serve-mixed workload: a real `synth serve --jobs 2 --cache` daemon in
   a fresh directory, driven closed loop by this process over two
   connections. Serve's callers (the CLI, explore, editors) wait for each
   reply, so each connection keeps exactly one request outstanding.

   The mix is the corpus of the repo's own load test, `synth bombard`
   ([Serve.Bombard]), in its default campaign of 8 clients x 25 requests:
   a pass is those 200 requests, in which request [j] of each client is a
   `ping` when [j mod 17 = 1], a `lint` when [j mod 5 = 4], and otherwise a
   `schedule` of diffeq under one of six option vectors (three weight
   vectors x two styles). Those six keys are the working set, so schedules
   are cache reads, except that bombard's cold campaign computes its six
   keys once in 144 schedules: here every 24th schedule is a unique 30-op
   graph instead, a miss (a pool fork, MFSA and an fsynced cache append).
   Per pass: 16 pings, 40 lints, 138 hits and 6 misses. *)

module Jsonl = Batch.Jsonl
module Client = Serve.Client

let synth_exe = "_build/default/bin/synth.exe"
let run_root = ".perfbench"

(* --- The daemon process ------------------------------------------------- *)

(* A daemon in its own session, so that it and every pool worker it forks
   share one process group the benchmark can account for. *)
let spawn ~dir =
  let argv =
    [|
      synth_exe; "serve"; "--socket"; Filename.concat dir "d.sock"; "--jobs";
      "2"; "--cache"; Filename.concat dir "cache.jsonl";
    |]
  in
  match Unix.fork () with
  | 0 -> (
      try
        ignore (Unix.setsid ());
        let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
        let log =
          Unix.openfile (Filename.concat dir "daemon.log")
            [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
        in
        Unix.dup2 null Unix.stdin;
        Unix.dup2 log Unix.stdout;
        Unix.dup2 log Unix.stderr;
        Unix.execv synth_exe argv
      with _ -> Unix._exit 127)
  | pid -> pid

let connect ~dir =
  Client.connect ~timeout:20.
    ~backoff:(Batch.Retry.forever ~base_delay:0.001 ~max_delay:0.002 ())
    (Filename.concat dir "d.sock")

(* Processes whose process group is [pgid], read from /proc. *)
let group_members pgid =
  Sys.readdir "/proc" |> Array.to_list
  |> List.filter_map (fun entry ->
         match int_of_string_opt entry with
         | None -> None
         | Some pid -> (
             match
               In_channel.with_open_bin
                 (Printf.sprintf "/proc/%d/stat" pid)
                 In_channel.input_all
             with
             | exception Sys_error _ -> None
             | stat -> (
                 (* Fields after the parenthesised command name: state,
                    ppid, pgrp, ... *)
                 let rest =
                   String.sub stat
                     (String.rindex stat ')' + 2)
                     (String.length stat - String.rindex stat ')' - 2)
                 in
                 match String.split_on_char ' ' rest with
                 | state :: _ :: pgrp :: _
                   when state <> "Z" && int_of_string_opt pgrp = Some pgid ->
                     Some pid
                 | _ -> None)))

(* SIGTERM, wait for the drain, and check that it exited 0 and left no
   process of its group behind. Stragglers are killed so that they cannot
   starve later runs. *)
let stop pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  (* The daemon's own drain timeout is 5 s; past 10 s it is hung. *)
  let rec reap waited =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when waited < 10. ->
        Unix.sleepf 0.005;
        reap (waited +. 0.005)
    | 0, _ ->
        (try Unix.kill (-pid) Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid);
        None
    | _, st -> Some st
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap waited
  in
  let problems =
    match reap 0. with
    | Some (Unix.WEXITED 0) -> []
    | Some (Unix.WEXITED n) -> [ Printf.sprintf "daemon drain exited %d" n ]
    | Some (Unix.WSIGNALED n | Unix.WSTOPPED n) ->
        [ Printf.sprintf "daemon drain ended by signal %d" n ]
    | None -> [ "daemon still running 10 s after SIGTERM" ]
  in
  match group_members pid with
  | [] -> problems
  | left ->
      (try Unix.kill (-pid) Sys.sigkill with Unix.Unix_error _ -> ());
      let rec wait_gone n =
        if n > 0 && group_members pid <> [] then begin
          Unix.sleepf 0.01;
          wait_gone (n - 1)
        end
      in
      wait_gone 500;
      problems
      @ [
          Printf.sprintf "%d daemon-group process(es) outlived the drain"
            (List.length left);
        ]

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter
        (fun f -> remove_tree (Filename.concat path f))
        (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* --- Requests ----------------------------------------------------------- *)

type kind = Ping | Lint | Warm of int | Hit of int | Miss of int

let kind_name = function
  | Ping -> "serve.ping"
  | Lint -> "serve.lint"
  | Warm _ -> "serve.warm"
  | Hit _ -> "serve.hit"
  | Miss _ -> "serve.miss"

type entry = {
  label : string;
  source : string;
  weights : Core.Mfsa.weights;
  style : Core.Mfsa.style;
}

let style_int = function
  | Core.Mfsa.Unrestricted -> 1
  | Core.Mfsa.No_self_loop -> 2

let schedule_fields e =
  [
    ("graph", Jsonl.String e.source);
    ("cs", Jsonl.Int 0);
    ("weights", Jsonl.String (Explore.Spec.weights_name e.weights));
    ("style", Jsonl.Int (style_int e.style));
  ]

let diffeq_source () =
  Dfg.Parser.to_source (Workloads.Classic.diffeq ())

(* The working set: [Serve.Bombard]'s six schedule keys, diffeq under its
   three weight vectors and both styles; key [seq mod 6] for request
   [seq], as bombard cycles them. *)
let working_set () =
  let source = diffeq_source () in
  let weights =
    [| (1., 1., 1., 1.); (1., 1., 1., 20.); (2., 1., 1., 1.) |]
  in
  Array.init 6 (fun i ->
      let w_time, w_alu, w_mux, w_reg = weights.(i mod 3) in
      {
        label = Printf.sprintf "diffeq/w%d/s%d" (i mod 3) (1 + (i / 3 mod 2));
        source;
        weights = { Core.Mfsa.w_time; w_alu; w_mux; w_reg };
        style =
          (if i / 3 mod 2 = 0 then Core.Mfsa.Unrestricted
           else Core.Mfsa.No_self_loop);
      })

(* Unique miss graphs: 30-op random DAGs, distinct within a run. *)
let miss_entry ~seed k =
  {
    label = Printf.sprintf "miss%d" k;
    source =
      Designs.random_source Workloads.Random_dag.default
        (Designs.sub_seed seed (1000 + k));
    weights = Core.Mfsa.equal_weights;
    style = Core.Mfsa.Unrestricted;
  }

(* --- Closed loop -------------------------------------------------------- *)

type sample = { kind : kind; t0 : float; t1 : float }

type run = {
  mutable sent : int;
  mutable answered : int;
  mutable failed : int;
  mutable problems : string list;
  served : (string, Explore.Lattice.metrics) Hashtbl.t;
      (** First metrics answered per working-set or miss label. *)
}

let note_problem r m =
  r.failed <- r.failed + 1;
  if List.length r.problems < 10 then r.problems <- m :: r.problems

let check_response r ws misses ~id kind (resp : Serve.Protocol.response) =
  let label =
    match kind with
    | Hit i | Warm i -> Some ws.(i).label
    | Miss k -> Some (Hashtbl.find misses k).label
    | Ping | Lint -> None
  in
  if resp.Serve.Protocol.r_id <> id then
    note_problem r
      (Printf.sprintf "response id %S for request %S" resp.r_id id)
  else if not resp.r_ok then
    note_problem r
      (Printf.sprintf "%s %s failed: %s" (kind_name kind) id
         (match resp.r_diag with Some d -> Diag.to_string d | None -> "?"))
  else
    match (kind, label) with
    | (Hit _ | Warm _ | Miss _), Some label -> (
        let expect_cached = match kind with Hit _ -> true | _ -> false in
        match
          Option.to_result ~none:"no payload" resp.r_payload
          |> Fun.flip Result.bind Explore.Lattice.metrics_of_json
        with
        | Error m -> note_problem r (label ^ ": bad payload: " ^ m)
        | Ok _ when resp.r_cached <> expect_cached ->
            note_problem r
              (Printf.sprintf "%s: cached=%b, expected %b" label resp.r_cached
                 expect_cached)
        | Ok m -> (
            match Hashtbl.find_opt r.served label with
            | None -> Hashtbl.replace r.served label m
            | Some first ->
                if { m with m_seconds = 0. } <> { first with m_seconds = 0. }
                then
                  note_problem r (label ^ ": answer changed between requests")))
    | _ -> ()

(* Send every request of [batch] over [conns], keeping one outstanding per
   connection; return the latency samples once all are answered. *)
let drive r ws misses conns batch =
  let samples = ref [] in
  let pending = ref batch in
  let outstanding = Hashtbl.create 4 in
  let send c =
    match !pending with
    | [] -> ()
    | (kind, id, payload) :: rest ->
        pending := rest;
        r.sent <- r.sent + 1;
        let t0 = Unix.gettimeofday () in
        (match Client.send c payload with
        | Ok () ->
            Hashtbl.replace outstanding (Client.fd c) (c, kind, id, t0, r.sent)
        | Error d -> note_problem r ("send: " ^ Diag.to_string d))
  in
  List.iter send conns;
  while Hashtbl.length outstanding > 0 do
    let fds = Hashtbl.fold (fun fd _ acc -> fd :: acc) outstanding [] in
    let ready =
      match Unix.select fds [] [] 30. with
      | ready, _, _ -> Some ready
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> None
    in
    if ready = Some [] then begin
      (* A closed loop cannot go on without the answer; give up the rest
         of the batch, counting every unanswered request as failed. *)
      Hashtbl.iter
        (fun _ (_, _, id, _, _) ->
          note_problem r (id ^ ": no response in 30 s"))
        outstanding;
      List.iter (fun (_, id, _) -> note_problem r (id ^ ": not sent")) !pending;
      Hashtbl.reset outstanding;
      pending := []
    end;
    List.iter
      (fun fd ->
        let c, kind, id, t0, group = Hashtbl.find outstanding fd in
        Hashtbl.remove outstanding fd;
        (match Client.recv c with
        | Ok (Some resp) ->
            let t1 = Unix.gettimeofday () in
            r.answered <- r.answered + 1;
            samples := { kind; t0; t1 } :: !samples;
            Trace.record ~group (kind_name kind) ~t0 ~t1;
            check_response r ws misses ~id kind resp
        | Ok None -> note_problem r (id ^ ": connection closed")
        | Error d -> note_problem r (id ^ ": " ^ Diag.to_string d));
        send c)
      (Option.value ~default:[] ready)
  done;
  !samples

(* One pass: bombard's default campaign of 8 clients x 25 requests, in
   client order. Payloads are built before the pass is timed. *)
let clients = 8
let requests_per_client = 25
let miss_every = 24

let make_batch ~seed ~ws ~misses ~next_miss ~lint_source ~pass =
  let schedules = ref 0 in
  List.init (clients * requests_per_client) (fun seq ->
      let j = seq mod requests_per_client in
      let id = Printf.sprintf "p%d-%d" pass seq in
      if j mod 17 = 1 then (Ping, id, Client.build ~op:"ping" ~id [])
      else if j mod 5 = 4 then
        ( Lint,
          id,
          Client.build ~op:"lint" ~id [ ("graph", Jsonl.String lint_source) ] )
      else begin
        incr schedules;
        if !schedules mod miss_every = 0 then begin
          let k = !next_miss in
          incr next_miss;
          let e = miss_entry ~seed k in
          Hashtbl.replace misses k e;
          (Miss k, id, Client.build ~op:"schedule" ~id (schedule_fields e))
        end
        else
          let i = seq mod Array.length ws in
          (Hit i, id, Client.build ~op:"schedule" ~id (schedule_fields ws.(i)))
      end)

(* --- The workload ------------------------------------------------------- *)

let ping conn =
  match Client.request conn (Client.build ~op:"ping" ~id:"setup" []) with
  | Ok r when r.Serve.Protocol.r_ok -> Ok ()
  | Ok _ -> Error "ping answered with an error"
  | Error d -> Error (Diag.to_string d)

(* Daemon spawn to the first answered ping. *)
let start ~dir =
  let t0 = Unix.gettimeofday () in
  let pid = spawn ~dir in
  match connect ~dir with
  | Error d ->
      ignore (stop pid);
      failwith ("cannot reach the daemon: " ^ Diag.to_string d)
  | Ok conn -> (
      match ping conn with
      | Error m ->
          ignore (stop pid);
          failwith ("daemon setup ping: " ^ m)
      | Ok () -> (pid, conn, Unix.gettimeofday () -. t0))

let peak_rss_mb pid =
  match
    In_channel.with_open_bin
      (Printf.sprintf "/proc/%d/status" pid)
      In_channel.input_all
  with
  | exception Sys_error _ -> nan
  | status ->
      String.split_on_char '\n' status
      |> List.find_map (fun line ->
             match String.split_on_char ':' line with
             | [ "VmHWM"; v ] ->
                 Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb ->
                     float_of_int kb /. 1024.)
             | _ -> None)
      |> Option.value ~default:nan

let stats_counters conn =
  match Client.request conn (Client.build ~op:"stats" ~id:"stats" []) with
  | Ok { Serve.Protocol.r_ok = true; r_payload = Some doc; _ } ->
      let num path =
        List.fold_left
          (fun v key -> Option.bind v (Jsonl.member key))
          (Some doc) path
        |> Fun.flip Option.bind Jsonl.to_float
        |> Option.value ~default:0.
      in
      let lib_hits = num [ "library_cache"; "hits" ]
      and lib_misses = num [ "library_cache"; "misses" ] in
      Ok
        [
          ("explore.cache_hit_ratio", num [ "cache"; "hit_rate" ]);
          ( "serve.library_cache_hit_ratio",
            if lib_hits +. lib_misses = 0. then 0.
            else lib_hits /. (lib_hits +. lib_misses) );
          ("serve.shed", num [ "shed" ]);
          ( "batch.pool_jobs",
            List.fold_left
              (fun a v -> a +. num [ "verdicts"; v ])
              0.
              [ "done"; "rejected"; "timeout"; "oom"; "crashed" ] );
        ]
  | Ok _ -> Error "stats answered with an error"
  | Error d -> Error (Diag.to_string d)

(* The served metrics must equal an in-process evaluation of the same
   point: every working-set entry, and the first misses. *)
let verify r ws misses =
  let point e =
    {
      Explore.Lattice.index = 0;
      engine = Explore.Spec.Mfsa;
      style = e.style;
      weights = e.weights;
      constr = Explore.Spec.Time 0;
      library = Explore.Spec.Default;
      widths = false;
      ports = None;
      clock = None;
      cse = false;
      fault = None;
    }
  in
  let sample =
    Array.to_list ws
    @ (Hashtbl.fold (fun k e acc -> (k, e) :: acc) misses []
      |> List.sort compare
      |> List.filteri (fun i _ -> i < 20)
      |> List.map snd)
  in
  List.iter
    (fun e ->
      match Hashtbl.find_opt r.served e.label with
      | None -> note_problem r (e.label ^ ": never answered")
      | Some got -> (
          match Dfg.Parser.parse e.source with
          | Error d -> note_problem r (e.label ^ ": " ^ Diag.to_string d)
          | Ok graph -> (
              match Explore.Lattice.evaluate ~graph (point e) with
              | Error d -> note_problem r (e.label ^ ": " ^ Diag.to_string d)
              | Ok want ->
                  if { want with m_seconds = 0. } <> { got with m_seconds = 0. }
                  then
                    note_problem r
                      (e.label ^ ": served metrics differ from in-process"))))
    sample

let setup_reps = 5
let setup_every = 10

let run ~seed ~seconds ~trace =
  let dir =
    Filename.concat run_root (Printf.sprintf "serve-%d" (Unix.getpid ()))
  in
  if not (Sys.file_exists run_root) then Sys.mkdir run_root 0o755;
  remove_tree dir;
  Sys.mkdir dir 0o755;
  let r =
    {
      sent = 0;
      answered = 0;
      failed = 0;
      problems = [];
      served = Hashtbl.create 64;
    }
  in
  let hygiene = ref [] in
  (* Set-up is daemon spawn to the first answered ping. It runs
     [setup_reps] times before the first pass, each time a daemon in its
     own directory, the last being the one driven, and once more, with a
     throwaway daemon, after every [setup_every]th pass; the median is
     reported. Host load drifts over a run, and set-ups taken only before
     the first pass spread more between runs (perfbench/README.md, set A). *)
  let setups = ref [] in
  let set_up k =
    let dir = Filename.concat dir (Printf.sprintf "setup%d" k) in
    Sys.mkdir dir 0o755;
    let pid, conn, dt = start ~dir in
    setups := dt :: !setups;
    Client.close conn;
    hygiene := !hygiene @ stop pid
  in
  for k = 1 to setup_reps - 1 do
    set_up (-k)
  done;
  let pid, conn, dt = start ~dir in
  setups := dt :: !setups;
  let stopped = ref false in
  let finish () =
    if not !stopped then begin
      stopped := true;
      hygiene := !hygiene @ stop pid
    end
  in
  Fun.protect ~finally:(fun () -> finish (); remove_tree dir) @@ fun () ->
  let conn2 =
    match connect ~dir with
    | Ok c -> c
    | Error d -> failwith ("second connection: " ^ Diag.to_string d)
  in
  let conns = [ conn; conn2 ] in
  let ws = working_set () in
  let lint_source = diffeq_source () in
  let misses = Hashtbl.create 256 in
  (* Fill the cache with the working set before anything is timed. *)
  ignore
    (drive r ws misses conns
       (Array.to_list
          (Array.mapi
             (fun i e ->
               let id = Printf.sprintf "w%d" i in
               ( Warm i,
                 id,
                 Client.build ~op:"schedule" ~id (schedule_fields e) ))
             ws)));
  let warm = r.sent in
  let next_miss = ref 0 in
  let untraced = ref [] and traced = ref [] and timed = ref [] in
  let t_start = Unix.gettimeofday () in
  let pass = ref 0 in
  while Unix.gettimeofday () -. t_start < seconds || !pass < 2 do
    let on = trace && !pass mod 2 = 1 in
    let batch =
      make_batch ~seed ~ws ~misses ~next_miss ~lint_source ~pass:!pass
    in
    Trace.enabled := on;
    let t0 = Unix.gettimeofday () in
    let samples =
      Trace.with_span "pass" (fun () -> drive r ws misses conns batch)
    in
    let dt = Unix.gettimeofday () -. t0 in
    Trace.enabled := false;
    if on then traced := dt :: !traced
    else begin
      untraced := dt :: !untraced;
      timed := samples @ !timed
    end;
    if !pass mod setup_every = setup_every - 1 then set_up !pass;
    incr pass
  done;
  let counters = stats_counters conn in
  let peak = peak_rss_mb pid in
  List.iter Client.close conns;
  finish ();
  verify r ws misses;
  let area, regs =
    Array.fold_left
      (fun (a, g) e ->
        match Hashtbl.find_opt r.served e.label with
        | Some m ->
            (a +. m.Explore.Lattice.m_total, g + m.Explore.Lattice.m_reg)
        | None -> (a, g))
      (0., 0) ws
  in
  let ms s = 1000. *. (s.t1 -. s.t0) in
  let lat = List.map ms !timed in
  let p99 = Stat.percentile 99. lat in
  let problems =
    r.problems @ !hygiene
    @ match counters with Error m -> [ m ] | Ok _ -> []
  in
  let notes =
    [
      Printf.sprintf
        "%d requests sent (%d warm-up), %d answered, %d failed; %d passes of %d"
        r.sent warm r.answered r.failed !pass
        (clients * requests_per_client);
      Printf.sprintf "request latency: p50 %.3f ms, p99 %.3f ms over %d samples"
        (Stat.median lat) p99 (List.length lat);
      Printf.sprintf "throughput: %.0f requests/s (untraced passes)"
        (float_of_int (List.length lat) /. Stat.sum !untraced);
    ]
    @ List.rev problems
  in
  let metrics =
    if not trace then
      [
        Report.m "pass_s" "s" (Stat.median !untraced);
        Report.m "p50_ms" "ms" (Stat.median lat);
        Report.m "tail_ms" "ms" p99;
        Report.m "area_um2" "um2" area;
        Report.m "registers" "count" (float_of_int regs);
        Report.m "peak_mem_mb" "MiB" peak;
        Report.m "setup_s" "s" (Stat.median !setups);
      ]
    else
      let p50 name = 1000. *. Stat.median (Trace.durations name) in
      Report.layers
        ([
           ("serve.ping_ms", p50 "serve.ping");
           ("serve.hit_ms", p50 "serve.hit");
           ("serve.miss_ms", p50 "serve.miss");
           ( "trace.overhead_pct",
             100.
             *. (Stat.median !traced -. Stat.median !untraced)
             /. Stat.median !untraced );
         ]
        @ Result.value ~default:[] counters)
  in
  {
    Report.correct = problems = [];
    attempted = r.sent;
    failed = r.failed;
    metrics;
    notes;
  }
