(* Host-speed calibration of the end-to-end run.

   The benchmark runs on a few vCPUs of a shared host, whose speed
   moves by a third from one pass to the next and by more from one run
   to the next as other tenants come and go; a pass's wall-clock time
   moves with it, and so would every host figure taken from it.  So in
   the end-to-end run two fixed reference kernels run between passes,
   and each host time of a pass is rescaled by [ref_ns / kernel ns],
   the kernel time taken from the runs on either side of the pass: it
   then reads as the time the pass would take on a host that runs the
   kernels in [ref_ns].  The kernels use the
   OCaml standard library only (hashing, short lists, small records:
   the allocation and pointer-chasing mix of the simulator, one on a
   cache-sized table and one on a table of several MB), so a change to
   the simulator moves the pass and not the kernels, and moves the
   rescaled figure by the same share as the raw one.  The raw
   wall-clock figures are printed beside the rescaled ones. *)

(* The kernels' time (geometric mean of the two) on the 2-vCPU Xeon VM
   the bounds in BENCHMARK.json were set on, so that rescaled figures
   read close to wall-clock ones there. *)
let ref_ns = 3_000_000.

(* A 4096-key table of growing lists and a stream of small arrays. *)
let small () =
  let h = Hashtbl.create 1024 in
  let acc = ref 0 in
  for i = 0 to 9_999 do
    let k = (i * 7919) land 4095 in
    (match Hashtbl.find_opt h k with
    | Some l ->
      Hashtbl.replace h k (i :: l);
      acc := !acc + List.length l
    | None -> Hashtbl.replace h k [ i ]);
    let a = Array.make 8 i in
    acc := !acc + a.(3)
  done;
  !acc

(* Chained records at pseudo-random keys of a 65536-key table. *)
type link = { at : int; key : int; next : link option }

let large () =
  let h = Hashtbl.create 65536 in
  let x = ref 12345 and acc = ref 0 in
  for i = 0 to 39_999 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let k = !x land 65535 in
    match Hashtbl.find_opt h k with
    | Some r ->
      acc := !acc + r.at;
      Hashtbl.replace h k { at = i; key = k; next = Some r }
    | None -> Hashtbl.replace h k { at = i; key = k; next = None }
  done;
  !acc + Hashtbl.length h

(* Geometric mean of two kernel times. *)
let mean a b = int_of_float (Float.sqrt (float_of_int a *. float_of_int b))

let time f =
  let t0 = Spans.now_ns () in
  ignore (Sys.opaque_identity (f ()));
  Spans.now_ns () - t0

(* Host ns of the kernels: the geometric mean of one timed run of each,
   each from a collected heap, after an untimed warm-up run.  Leaves
   the heap collected. *)
let measure () =
  ignore (time small);
  Gc.full_major ();
  let a = time small in
  Gc.full_major ();
  let b = time large in
  Gc.full_major ();
  mean a b

(* Factor that rescales the host times of a pass whose kernels took
   [cal_ns]; 1 for a pass that was not calibrated. *)
let scale cal_ns = if cal_ns <= 0 then 1. else ref_ns /. float_of_int cal_ns
