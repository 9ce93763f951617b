(* Seeded design sets of the two synthesis workloads. Everything here is
   set-up: it turns a seed into DFG source text, which the timed passes
   then parse. *)

let random_source spec seed =
  Dfg.Parser.to_source (Workloads.Random_dag.generate_exn ~spec ~seed ())

(* Generator seed of graph [i] of a run; distinct for distinct [i] within
   one run seed. *)
let sub_seed seed i = (seed * 1009) + i

let both_styles name source ~slack =
  [
    { Compile.name = name ^ "/s1"; source; slack;
      engine = Compile.Mfsa Core.Mfsa.Unrestricted };
    { Compile.name = name ^ "/s2"; source; slack;
      engine = Compile.Mfsa Core.Mfsa.No_self_loop };
  ]

let example_dir = "examples/data"

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The paper's Table 2 set-up (every classic example, both design styles,
   critical path + 1), the shipped example files (banked arrays, width
   annotations), and seeded random graphs at critical path + 2, where MFSA
   does almost all the work. MFSA time varies about 30% between random
   graphs of one size, so many mid-size graphs rather than a few large
   ones keep a seed's total close to every other seed's. *)
let random_graphs = 60
let random_ops = 50

let mfsa_mid ~seed =
  let classic =
    List.concat_map
      (fun (key, g) -> both_styles key (Dfg.Parser.to_source g) ~slack:1)
      (Workloads.Classic.all ())
  in
  let examples =
    Sys.readdir example_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".dfg")
    |> List.sort compare
    |> List.concat_map (fun f ->
           both_styles f (read_file (Filename.concat example_dir f)) ~slack:1)
  in
  let spec = { Workloads.Random_dag.default with ops = random_ops } in
  let random =
    List.init random_graphs (fun i ->
        {
          Compile.name = Printf.sprintf "random%d" i;
          source = random_source spec (sub_seed seed i);
          slack = 2;
          engine = Compile.Mfsa Core.Mfsa.Unrestricted;
        })
  in
  classic @ examples @ random

(* Large graphs scheduled by MFS with column binding, no MFSA: half deep
   (small locality), half wide with guarded operations so mutex sharing
   runs in the checker and the simulator. Six of each at 300 ops rather
   than one of each at 500, for the same reason as above. *)
let rtl_large ~seed =
  let base = Workloads.Random_dag.default in
  let deep = { base with ops = 300; locality = 4 } in
  let wide =
    { base with ops = 300; inputs = 8; locality = 48; guard_prob = 0.3 }
  in
  List.init 12 (fun i ->
      let name, spec =
        if i mod 2 = 0 then ("deep", deep) else ("wide-guarded", wide)
      in
      {
        Compile.name = Printf.sprintf "%s%d" name (i / 2);
        source = random_source spec (sub_seed seed i);
        slack = 2;
        engine = Compile.Mfs_colbind;
      })
