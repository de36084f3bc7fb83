(* Reproduction of the paper's evaluation tables (§5.3).

   Table 6: zero-filled memory allocation — create a region, demand
   some real memory by touching pages, deallocate — for Chorus (PVM)
   and for the Mach-style shadow baseline.

   Table 7: copy-on-write — a fully allocated source region is copied
   (deferred); writes to the source force real copies; the copy is
   destroyed.

   Times are simulated milliseconds from the calibrated cost profiles;
   the numbers in parentheses are the paper's measurements on the
   Sun-3/60. *)

open Util
module Paper = Workloads.Paper

let row_labels = [ "8 Kb"; "256 Kb"; "1024 Kb" ]
let col_labels = [ "0 Kb/0 pg"; "8 Kb/1 pg"; "256 Kb/32"; "1024 Kb/128" ]

(* One measured cell, on a fresh engine carrying the harness's
   --tie-seed/--flight/--tracer/--domains settings. *)
let zero_fill impl ~size ~pages =
  in_sim (fun engine -> Paper.table6_cell impl engine ~size ~pages)

let cow impl ~size ~pages =
  in_sim (fun engine -> Paper.table7_cell impl engine ~size ~pages)

(* The paper leaves a cell empty where the column touches more pages
   than the region holds; so do we. *)
let print_table ~title ~f ~paper impl =
  let cell ri ci =
    let size = List.nth Paper.region_sizes ri
    and pages = List.nth Paper.col_pages ci in
    Option.map (fun p -> (f impl ~size ~pages, p)) (paper impl).(ri).(ci)
  in
  print_matrix ~title ~rows:row_labels ~cols:col_labels ~cell

(* --- Table 6: zero-filled allocation ------------------------------ *)

let table6 () =
  let print title = print_table ~title ~f:zero_fill ~paper:Paper.table6 in
  print
    "Table 6 -- Chorus: zero-filled memory allocation (region create, \
     demand-allocate N pages, destroy)"
    Paper.Chorus;
  print "Table 6 -- Mach baseline: zero-filled memory allocation" Paper.Mach

(* --- Table 7: copy-on-write --------------------------------------- *)

let table7 () =
  let print title = print_table ~title ~f:cow ~paper:Paper.table7 in
  print
    "Table 7 -- Chorus: copy-on-write (deferred copy of an allocated \
     region; N source pages then really copied)"
    Paper.Chorus;
  print "Table 7 -- Mach baseline: copy-on-write" Paper.Mach

(* --- §5.3 preliminaries -------------------------------------------- *)

let prelim () =
  Printf.printf "\n§5.3 preliminaries (simulated, Sun-3/60 profile)\n";
  let profile = Hw.Cost.chorus_sun360 in
  Printf.printf "  bcopy of 8 Kbytes: %.2f ms   (paper: %.2f ms)\n"
    (ms_of_ns profile.Hw.Cost.t_bcopy_page)
    Paper.bcopy_ms;
  Printf.printf "  bzero of 8 Kbytes: %.2f ms   (paper: %.2f ms)\n"
    (ms_of_ns profile.Hw.Cost.t_bzero_page)
    Paper.bzero_ms

(* --- §5.3.2 derived overheads -------------------------------------- *)

(* The paper's formulas (Paper.overheads) over our measured matrices,
   for both implementations; every value is also recorded in {!Report}
   under "derived", which test_repro pins against BENCH_pr4.json. *)
let derived () =
  Printf.printf "\n§5.3.2 derived overheads (measured vs paper)\n";
  let overheads impl =
    let values = Paper.overheads ~zero_fill:(zero_fill impl) ~cow:(cow impl) in
    List.iter
      (fun (name, measured) ->
        Report.add_derived ~impl:(Paper.impl_name impl) ~name ~measured
          ~paper:(Paper.derived impl name))
      values;
    fun name -> List.assoc name values
  in
  let chorus = overheads Paper.Chorus in
  List.iter
    (fun (label, name, per, approx) ->
      Printf.printf "  %-36s %.3f ms/%s (paper %s%g)\n" (label ^ ":")
        (chorus name) per approx
        (Paper.derived Paper.Chorus name))
    [
      ("on-demand page allocation structure", "demand-alloc", "page", "");
      ("deferred-copy source protection", "protect", "page", "~");
      ("history tree management", "tree-setup", "copy", "");
      ("copy-on-write resolution structure", "cow", "page", "");
    ];
  (* the same formulas over the Mach baseline's matrices (paper values
     recomputed from its Tables 6/7 cells) *)
  let v = overheads Paper.Mach in
  let paper = Paper.derived Paper.Mach in
  Printf.printf
    "  Mach: demand %.3f (%.3f)  protect %.4f (%.3f)  shadow setup %.3f \
     (%.2f)  cow %.3f (%.3f)  [ms]\n"
    (v "demand-alloc") (paper "demand-alloc") (v "protect") (paper "protect")
    (v "tree-setup") (paper "tree-setup") (v "cow") (paper "cow")

(* --- per-primitive attribution ------------------------------------- *)

(* The §5.3.2 decomposition cycle per implementation; the always-on
   metrics registry supplies the per-primitive counts and simulated
   time.  Recorded into {!Report} under "primitives" (informational,
   not pinned). *)
let primitives () =
  let report impl =
    in_sim (fun engine ->
        Obs.Metrics.prim_report (Paper.metrics (Paper.decomp impl engine)))
  in
  let chorus_report = report Paper.Chorus in
  let mach_report = report Paper.Mach in
  Printf.printf
    "\nPer-primitive attribution (1024 Kb / 128-page zero-fill + COW cycle)\n";
  let print label report =
    Printf.printf "  %s:\n" label;
    List.iter
      (fun (prim, count, ns) ->
        if count > 0 then
          Printf.printf "    %-18s %6d  %10.3f ms\n" prim count
            (ms_of_ns ns))
      report
  in
  print "chorus" chorus_report;
  print "mach" mach_report;
  Report.add_prims ~impl:"chorus" chorus_report;
  Report.add_prims ~impl:"mach" mach_report

(* --- Table 5: component sizes -------------------------------------- *)

let count_loc dir =
  if Sys.file_exists dir && Sys.is_directory dir then begin
    let total = ref 0 in
    Array.iter
      (fun f ->
        if Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli"
        then begin
          let ic = open_in (Filename.concat dir f) in
          (try
             while true do
               ignore (input_line ic);
               incr total
             done
           with End_of_file -> ());
          close_in ic
        end)
      (Sys.readdir dir);
    Some !total
  end
  else None

let table5 () =
  Printf.printf
    "\nTable 5 -- component sizes (paper: C++ lines; ours: OCaml lines)\n";
  Printf.printf "  paper machine-independent: Nucleus MM 1820, PVM 1980 \
     (total 3700 lines C++, 15.3 Kb object)\n";
  Printf.printf "  paper machine-dependent:   Sun 790+150asm, PMMU 1120+30, \
     iAPX386 980+200\n\n";
  let components =
    [
      ("lib/hw (simulated machine: MMU, frames, clock)", "lib/hw");
      ("lib/core (GMI + PVM, history objects)", "lib/core");
      ("lib/shadow (Mach-style baseline)", "lib/shadow");
      ("lib/seg (segment manager, mappers)", "lib/seg");
      ("lib/nucleus (actors, IPC, rgn ops)", "lib/nucleus");
      ("lib/mix (Unix process manager, VFS)", "lib/mix");
      ("lib/dsm (distributed coherence)", "lib/dsm");
      ("lib/minimal (real-time GMI implementation)", "lib/minimal");
      ("lib/simulator (reference GMI implementation)", "lib/simulator");
      ("lib/net (network of sites)", "lib/net");
    ]
  in
  List.iter
    (fun (label, dir) ->
      match count_loc dir with
      | Some n -> Printf.printf "  %-50s %6d lines\n" label n
      | None -> Printf.printf "  %-50s %6s\n" label "(sources not found)")
    components
