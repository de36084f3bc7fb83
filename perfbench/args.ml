(* Command line of the benchmark. *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10.
let trace = ref false
let perturb = ref false

let usage () =
  prerr_endline
    "usage: main.exe --workload tables|make|storm|storm-pool --seed N \
     --seconds S --trace 0|1 [--perturb-reference]";
  exit 2

let parse () =
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; go rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := v = "1"; go rest
    | "--perturb-reference" :: rest -> perturb := true; go rest
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !seconds <= 0. then usage ()
