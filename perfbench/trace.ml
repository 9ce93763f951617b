(* In-memory spans around the calls the benchmark makes into each layer.

   A span has a name, a start and an end, the span that caused it and a
   group id shared by every span of one design or request. Recording is off
   unless [enabled] is set, and then costs one allocation per span. Spans
   are only aggregated and written out when the run ends. *)

type span = {
  name : string;
  group : int;
  parent : int;  (** Index of the enclosing span, -1 for a root. *)
  t0 : float;
  mutable t1 : float;
}

let enabled = ref false
let spans : span array ref = ref [||]
let count = ref 0
let open_ = ref (-1)

let now = Unix.gettimeofday

let push s =
  if !count = Array.length !spans then begin
    let bigger = Array.make (max 1024 (2 * !count)) s in
    Array.blit !spans 0 bigger 0 !count;
    spans := bigger
  end;
  !spans.(!count) <- s;
  incr count;
  !count - 1

let with_span ?(group = -1) name f =
  if not !enabled then f ()
  else begin
    let parent = !open_ in
    let group =
      if group >= 0 || parent < 0 then group else !spans.(parent).group
    in
    let i = push { name; group; parent; t0 = now (); t1 = nan } in
    open_ := i;
    Fun.protect
      ~finally:(fun () ->
        !spans.(i).t1 <- now ();
        open_ := parent)
      f
  end

(* Self time of every span: its duration minus the durations of its direct
   children (children of one span never overlap: the benchmark is
   single-threaded). *)
let self_times () =
  let self = Array.init !count (fun i -> !spans.(i).t1 -. !spans.(i).t0) in
  for i = 0 to !count - 1 do
    let s = !spans.(i) in
    if s.parent >= 0 then self.(s.parent) <- self.(s.parent) -. (s.t1 -. s.t0)
  done;
  self

(* The root span each span descends from. *)
let roots () =
  let root = Array.make !count (-1) in
  for i = 0 to !count - 1 do
    let p = !spans.(i).parent in
    root.(i) <- (if p < 0 then i else root.(p))
  done;
  root

(* Self seconds per span name, summed within each root span named
   [root_name]: one table per root, in recording order. *)
let self_by_root ~root_name =
  let self = self_times () and root = roots () in
  let tables = Hashtbl.create 16 in
  let order = ref [] in
  for i = 0 to !count - 1 do
    let r = root.(i) in
    if !spans.(r).name = root_name then begin
      let tbl =
        match Hashtbl.find_opt tables r with
        | Some t -> t
        | None ->
            let t = Hashtbl.create 16 in
            Hashtbl.replace tables r t;
            order := r :: !order;
            t
      in
      let name = !spans.(i).name in
      Hashtbl.replace tbl name
        (self.(i) +. Option.value ~default:0. (Hashtbl.find_opt tbl name))
    end
  done;
  List.rev_map (Hashtbl.find tables) !order

(* Durations of every span called [name], in recording order. *)
let durations name =
  let acc = ref [] in
  for i = !count - 1 downto 0 do
    let s = !spans.(i) in
    if s.name = name then acc := (s.t1 -. s.t0) :: !acc
  done;
  !acc

(* Chrome trace-event JSON (complete events, microseconds), which Perfetto
   and chrome://tracing open directly. *)
let write path =
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[\n";
  let base = if !count = 0 then 0. else !spans.(0).t0 in
  let us t = (t -. base) *. 1e6 in
  for i = 0 to !count - 1 do
    let s = !spans.(i) in
    Printf.fprintf oc
      "%s{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\
       \"dur\":%.3f,\"args\":{\"span\":%d,\"parent\":%d,\"group\":%d}}"
      (if i = 0 then "" else ",\n")
      s.name (us s.t0) (us s.t1 -. us s.t0) i s.parent s.group
  done;
  output_string oc "\n]}\n";
  close_out oc

(* A span timed by the caller, under the innermost open span: for work
   that overlaps other spans, such as requests in flight together. *)
let record ?(group = -1) name ~t0 ~t1 =
  if !enabled then ignore (push { name; group; parent = !open_; t0; t1 })
