(* Reference outcomes, recorded from the seed commit.  The benchmark
   compares every pass against them, so a change that alters modelled
   behaviour shows as failed ops.  None of them depends on the workload
   seed (the benchmark checks this on a second seed every run). *)

(* Simulated ns of the Chorus Table 6 then Table 7 cells, rows 8/256/1024
   KB, columns 0/1/32/128 pages where they fit (Workloads.cells order).
   Printed at three decimals of a ms they are BENCH_pr4.json's cells. *)
let cells_ns =
  [| 370300; 1510300; 379600; 1519600; 36859600; 408400; 1548400; 36888400;
     146328400; 416300; 2112300; 921600; 2617600; 55193600; 2486400; 4182400;
     56758400; 219574400 |]

(* The paper's measurements for the same cells (ms, Sun-3/60). *)
let paper_ms =
  [| 0.350; 1.50; 0.352; 1.60; 36.6; 0.390; 1.63; 37.7; 145.9;
     0.4; 2.10; 0.7; 2.47; 55.7; 2.4; 4.2; 57.2; 221.9 |]

(* Final Core.Pvm.stats and Core.Inspect.digest of one make pass. *)
let make_stats =
  "faults=2178 zero_fills=256 cow_copies=386 pull_ins=834 push_outs=122 \
   evictions=913 tree_lookups=258 history_created=16 stub_resolves=256 \
   eager_pages=0 moved_pages=256"

let make_digest = "6c0218a35331bc64a495a309d8da83f2"

(* Check.Crossval.storm ~workers:16 ~pages:256 ~rounds:2 on the
   sequential engine; the parallel engine must reproduce it. *)
let storm_digest = "efb3d4284e31ec076116cffbf7f6214b"

(* Set by --perturb-reference: every check then compares against a
   deliberately wrong value, which must show as failed ops. *)
let perturbed = ref false

let cell i = cells_ns.(i) + if !perturbed then 1 else 0
let perturb s = if !perturbed then s ^ "!" else s
