(* Order statistics over run samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The highest percentile with at least ten samples beyond it, as
   (percentile, value); with twenty samples or fewer, where that percentile
   would be the median or below, the maximum. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (nan, nan)
  else if n <= 20 then (100., a.(n - 1))
  else (100. *. float_of_int (n - 10) /. float_of_int n, a.(n - 11))

(* The [p]th percentile by nearest rank. *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (int_of_float (Float.ceil (p /. 100. *. float_of_int n)) - 1))

let sum = List.fold_left ( +. ) 0.

(* Peak memory: the OCaml heap high-water mark of this process, MiB. *)
let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.
