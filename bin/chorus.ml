(* chorus — a small CLI over the reproduction.

   Subcommands:
     info               print the system inventory and versions
     fig3               replay the paper's Figure 3 scenarios
     fork N             run the shell fork pattern and report stats
     dsm N              ping-pong a page between two sites N times
     inspect            build a small scenario and dump the live
                        Figure 2 structures
     trace SCENARIO     capture a Chrome trace of a scenario
     stats SCENARIO     print the metrics-registry report of a scenario
     check SCENARIO     sanitizer + schedule-perturbation harness
     crossval           sequential-vs-parallel digest cross-validation
     bench              parallel fault-throughput microbenchmark
     explore SCENARIO   DPOR schedule exploration
     profile SCENARIO   cost-attribution profile
     replay BUNDLE      deterministically re-execute a crash bundle

   Failure forensics: check and explore write a crash bundle
   (Obs.Bundle, schema chorus-bundle/1) whenever a sanitizer sweep, a
   blocking-discipline breach, the watchdog or an uncaught exception
   kills a run; replay re-drives the bundle's recorded schedule
   decision-for-decision and asserts the same failure reappears.  The
   trace/profile/bench paths accept --flight to dump the flight
   recorder's ring for the same runs.

   The full evaluation lives in bench/main.exe; the walkthroughs in
   examples/. *)

open Cmdliner

let ps = 8192

let in_sim f =
  let engine = Hw.Engine.create () in
  Hw.Engine.run_fn engine (fun () -> f engine)

let print_info () =
  print_endline
    "chorus-vm: reproduction of 'Generic Virtual Memory Management for\n\
     Operating System Kernels' (Abrossimov, Rozier, Shapiro; SOSP 1989)";
  Printf.printf "\nmemory managers implementing the GMI:\n";
  List.iter
    (fun name -> Printf.printf "  - %s\n" name)
    [
      Core.Pvm_gmi.name; Minimal.Minimal_gmi.name; Simulator.Sim_gmi.name;
    ];
  Printf.printf
    "\nevaluation:  dune exec bench/main.exe\nwalkthroughs: dune exec \
     examples/quickstart.exe (and six more)\n"

let fig3 () =
  in_sim (fun engine ->
      let pvm = Core.Pvm.create ~frames:256 ~cost:Hw.Cost.free ~engine () in
      let ctx = Core.Context.create pvm in
      let mk base =
        let cache = Core.Cache.create pvm () in
        let _ =
          Core.Region.create pvm ctx ~addr:base ~size:(4 * ps)
            ~prot:Hw.Prot.read_write cache ~offset:0
        in
        cache
      in
      let src = mk 0 and cpy1 = mk (1024 * ps) and cpy2 = mk (2048 * ps) in
      Core.Pvm.write pvm ctx ~addr:ps (Bytes.make ps '1');
      let copy dst =
        Core.Cache.copy pvm ~strategy:`History ~src ~src_off:0 ~dst
          ~dst_off:0 ~size:(4 * ps) ()
      in
      copy cpy1;
      Core.Pvm.write pvm ctx ~addr:ps (Bytes.make ps 'X');
      copy cpy2;
      Format.printf "%a@." Core.Pvm.pp_history_tree src)

let fork n =
  in_sim (fun engine ->
      let site = Nucleus.Site.create ~frames:2048 ~engine () in
      let images = Mix.Image.create_store site in
      let _ =
        Mix.Image.add_image images ~name:"sh"
          ~text:(Bytes.make (4 * ps) 'T')
          ~data:(Bytes.make (4 * ps) 'D')
          ()
      in
      let m = Mix.Process.create_manager site images in
      let shell = Mix.Process.spawn_init m ~image:"sh" in
      Core.Pvm.reset_stats site.Nucleus.Site.pvm;
      let t0 = Hw.Engine.now engine in
      for i = 1 to n do
        let child = Mix.Process.fork m shell in
        Mix.Process.write shell ~addr:Mix.Process.data_base
          (Bytes.make 32 (Char.chr (65 + (i mod 26))));
        Mix.Process.exit_ m child ~status:0;
        ignore (Mix.Process.wait m shell)
      done;
      let stats = Core.Pvm.stats site.Nucleus.Site.pvm in
      Printf.printf
        "%d fork/exit rounds: %.2f sim-ms, %d pages really copied, %d \
         history objects, invariants %s\n"
        n
        (float_of_int (Hw.Engine.now engine - t0) /. 1e6)
        stats.Core.Types.n_cow_copies stats.n_history_created
        (match Check.Sanitizer.run site.Nucleus.Site.pvm with
        | [] -> "OK"
        | e ->
          String.concat "; "
            (List.map (Format.asprintf "%a" Check.Sanitizer.pp_violation) e)))

let dsm n =
  in_sim (fun engine ->
      let seg =
        Dsm.Coherent.create ~latency:(Hw.Sim_time.ms 2) ~size:(4 * ps)
          ~page_size:ps ()
      in
      let mk () =
        let pvm = Core.Pvm.create ~frames:32 ~engine () in
        let site = Dsm.Coherent.attach seg pvm in
        let ctx = Core.Context.create pvm in
        let _ =
          Core.Region.create pvm ctx ~addr:0 ~size:(4 * ps)
            ~prot:Hw.Prot.read_write (Dsm.Coherent.cache site) ~offset:0
        in
        (pvm, ctx)
      in
      let a = mk () and b = mk () in
      let t0 = Hw.Engine.now engine in
      for i = 1 to n do
        let pvm, ctx = if i mod 2 = 0 then a else b in
        Core.Pvm.write pvm ctx ~addr:0
          (Bytes.of_string (Printf.sprintf "round-%d" i))
      done;
      let stats = Dsm.Coherent.stats seg in
      Printf.printf
        "%d alternating writes: %.1f sim-ms, %d transfers, %d \
         invalidations\n"
        n
        (float_of_int (Hw.Engine.now engine - t0) /. 1e6)
        stats.Dsm.Coherent.page_transfers stats.invalidations)

let inspect () =
  in_sim (fun engine ->
      let pvm = Core.Pvm.create ~frames:64 ~cost:Hw.Cost.free ~engine () in
      let ctx = Core.Context.create pvm in
      let src = Core.Cache.create pvm () in
      let dst = Core.Cache.create pvm () in
      let _ =
        Core.Region.create pvm ctx ~addr:0 ~size:(4 * ps)
          ~prot:Hw.Prot.read_write src ~offset:0
      in
      Core.Pvm.write pvm ctx ~addr:0 (Bytes.make (2 * ps) 's');
      Core.Cache.copy pvm ~strategy:`History ~src ~src_off:0 ~dst ~dst_off:0
        ~size:(4 * ps) ();
      Core.Pvm.write pvm ctx ~addr:0 (Bytes.make 8 'w');
      Format.printf "%a@.@.%a@." Core.Inspect.pp_state pvm
        Core.Inspect.pp_context ctx)

(* Scenarios shared by the trace, stats, check, explore, replay and
   crossval subcommands: the same workloads as the interactive
   commands above, but quiet, and under the calibrated Sun-3/60
   profile (the [create] default) so spans carry durations and the
   per-primitive attribution is populated.  Each calls [register] with
   every PVM as soon as it exists, so the check subcommand's per-event
   sweep can watch instances while the scenario is still running, and
   observes the concatenated Inspect digests. *)

let scenario_fig3 engine ~register =
  let pvm = Core.Pvm.create ~frames:256 ~engine () in
  register pvm;
  let ctx = Core.Context.create pvm in
  let mk base =
    let cache = Core.Cache.create pvm () in
    let _ =
      Core.Region.create pvm ctx ~addr:base ~size:(4 * ps)
        ~prot:Hw.Prot.read_write cache ~offset:0
    in
    cache
  in
  let src = mk 0 and cpy1 = mk (1024 * ps) and cpy2 = mk (2048 * ps) in
  Core.Pvm.write pvm ctx ~addr:ps (Bytes.make ps '1');
  let copy dst =
    Core.Cache.copy pvm ~strategy:`History ~src ~src_off:0 ~dst ~dst_off:0
      ~size:(4 * ps) ()
  in
  copy cpy1;
  Core.Pvm.write pvm ctx ~addr:ps (Bytes.make ps 'X');
  copy cpy2;
  Core.Pvm.write pvm ctx ~addr:(1024 * ps) (Bytes.make ps 'c');
  Check.Explore.observe_digests [ pvm ]

let scenario_fork engine ~register =
  let site = Nucleus.Site.create ~frames:2048 ~engine () in
  register site.Nucleus.Site.pvm;
  let images = Mix.Image.create_store site in
  let _ =
    Mix.Image.add_image images ~name:"sh"
      ~text:(Bytes.make (4 * ps) 'T')
      ~data:(Bytes.make (4 * ps) 'D')
      ()
  in
  let m = Mix.Process.create_manager site images in
  let shell = Mix.Process.spawn_init m ~image:"sh" in
  for i = 1 to 4 do
    let child = Mix.Process.fork m shell in
    Mix.Process.write shell ~addr:Mix.Process.data_base
      (Bytes.make 32 (Char.chr (65 + (i mod 26))));
    Mix.Process.exit_ m child ~status:0;
    ignore (Mix.Process.wait m shell)
  done;
  Check.Explore.observe_digests [ site.Nucleus.Site.pvm ]

let scenario_dsm engine ~register =
  let seg =
    Dsm.Coherent.create ~latency:(Hw.Sim_time.ms 2) ~size:(4 * ps)
      ~page_size:ps ()
  in
  let mk () =
    let pvm = Core.Pvm.create ~frames:32 ~engine () in
    register pvm;
    let site = Dsm.Coherent.attach seg pvm in
    let ctx = Core.Context.create pvm in
    let _ =
      Core.Region.create pvm ctx ~addr:0 ~size:(4 * ps)
        ~prot:Hw.Prot.read_write (Dsm.Coherent.cache site) ~offset:0
    in
    (pvm, ctx)
  in
  let a = mk () and b = mk () in
  for i = 1 to 10 do
    let pvm, ctx = if i mod 2 = 0 then a else b in
    Core.Pvm.write pvm ctx ~addr:0
      (Bytes.of_string (Printf.sprintf "round-%d" i))
  done;
  Check.Explore.observe_digests [ fst a; fst b ]

let scenario_ipc engine ~register =
  let site = Nucleus.Site.create ~frames:256 ~engine () in
  register site.Nucleus.Site.pvm;
  let transit = Nucleus.Transit.create site ~slots:4 () in
  let sender = Nucleus.Actor.create site in
  let receiver = Nucleus.Actor.create site in
  let _ =
    Nucleus.Actor.rgn_allocate sender ~addr:0 ~size:(16 * ps)
      ~prot:Hw.Prot.read_write
  in
  let _ =
    Nucleus.Actor.rgn_allocate receiver ~addr:0 ~size:(16 * ps)
      ~prot:Hw.Prot.read_write
  in
  let endpoint = Nucleus.Ipc.make_endpoint () in
  Nucleus.Actor.write sender ~addr:0 (Bytes.make (4 * ps) 'i');
  for _ = 1 to 4 do
    Nucleus.Ipc.send sender transit ~dst:endpoint ~addr:0 ~len:(4 * ps);
    ignore (Nucleus.Ipc.receive receiver transit endpoint ~addr:0)
  done;
  Check.Explore.observe_digests [ site.Nucleus.Site.pvm ]

(* Several fibres hammering overlapping pages of one cache through a
   frame pool too small to hold them, over a swap store with real seek
   latency: every fault may find its page mid-pullIn or mid-pushOut on
   another fibre, which is exactly the §3.3.3 blocking discipline the
   harness perturbs and checks.  Written for the check subcommand but
   usable with trace/stats too. *)
let scenario_contend engine ~register =
  let site =
    Nucleus.Site.create ~frames:6 ~swap_seek_time:(Hw.Sim_time.ms 4)
      ~swap_transfer_time_per_page:(Hw.Sim_time.ms 1) ~engine ()
  in
  let pvm = site.Nucleus.Site.pvm in
  register pvm;
  let ctx = Core.Context.create pvm in
  let cache = Core.Cache.create pvm () in
  let pages = 8 in
  let _ =
    Core.Region.create pvm ctx ~addr:0 ~size:(pages * ps)
      ~prot:Hw.Prot.read_write cache ~offset:0
  in
  for f = 0 to 3 do
    Hw.Engine.spawn engine ~name:(Printf.sprintf "worker-%d" f) (fun () ->
        for round = 0 to 5 do
          for i = 0 to pages - 1 do
            let page = (i + f + round) mod pages in
            Core.Pvm.write pvm ctx
              ~addr:((page * ps) + (f * 64))
              (Bytes.make 16 (Char.chr (65 + f)));
            ignore
              (Core.Pvm.read pvm ctx
                 ~addr:((page + (pages / 2)) mod pages * ps)
                 ~len:8)
          done
        done)
  done;
  Check.Explore.observe_digests [ pvm ]

(* [Schedule_independent] marks scenarios whose observable outcome must
   not depend on the schedule: single logical thread of control, so
   the check subcommand compares stats across seeds byte-for-byte.
   [contend] is excluded — its racing writers legitimately interleave
   differently per schedule, and only the safety properties (invariant
   sweep, blocking discipline) are schedule-independent.  [storm] is
   the contended many-context fault workload shared with crossval and
   the throughput benchmark — the one scenario whose workers carry
   non-zero affinities, so with --domains it genuinely exercises the
   pool (the others are serial-class programs). *)
let scenarios =
  let mk name run oracle = { Check.Explore.name; run; oracle } in
  Check.Explore.
    [
      mk "fig3" scenario_fig3 Schedule_independent;
      mk "fork" scenario_fork Schedule_independent;
      mk "dsm" scenario_dsm Schedule_independent;
      mk "ipc" scenario_ipc Schedule_independent;
      mk "contend" scenario_contend No_oracle;
      Check.Crossval.storm ();
    ]

let find_scenario among name =
  match List.find_opt (fun s -> s.Check.Explore.name = name) among with
  | Some s -> s
  | None ->
    Printf.eprintf "chorus: unknown scenario '%s' (available: %s)\n" name
      (String.concat ", " (List.map (fun s -> s.Check.Explore.name) among));
    exit 2

let write_file ~cmd file contents =
  try Out_channel.with_open_text file (fun oc -> output_string oc contents)
  with Sys_error msg ->
    Printf.eprintf "chorus %s: %s\n" cmd msg;
    exit 1

(* --flight: attach an enabled flight recorder to the run's engine and
   dump its ring + decision log as JSON afterwards. *)
let attach_flight engine =
  let fl = Obs.Flight.create () in
  Obs.Flight.enable fl;
  Hw.Engine.set_flight engine fl;
  fl

let dump_flight ~cmd fl file =
  write_file ~cmd file (Obs.Json.to_string (Obs.Flight.to_json fl) ^ "\n");
  Printf.printf
    "wrote %s (flight ring: %d records, %d decisions, %d dropped)\n" file
    (Obs.Flight.length fl)
    (Obs.Flight.decision_count fl)
    (Obs.Flight.dropped fl)

let check_domains ~cmd = function
  | Some d when d < 1 ->
    Printf.eprintf "chorus %s: --domains must be >= 1\n" cmd;
    exit 2
  | d -> d

let trace scenario out flight_out domains =
  let domains = check_domains ~cmd:"trace" domains in
  if flight_out <> None && domains <> None then begin
    Printf.eprintf
      "chorus trace: --flight requires the sequential engine; drop --domains \
       (the flight recorder logs a serial decision sequence the pool does \
       not produce)\n";
    exit 2
  end;
  let scen = find_scenario scenarios scenario in
  let tr = Obs.Trace.create () in
  let engine = Hw.Engine.create ?domains () in
  Hw.Engine.set_tracer engine tr;
  Obs.Trace.enable tr;
  let fl = Option.map (fun _ -> attach_flight engine) flight_out in
  let _pvms =
    Hw.Engine.run_fn engine (fun () -> Check.Explore.start engine scen)
  in
  let json = Obs.Trace.to_chrome_json tr in
  (match out with
  | None -> print_endline json
  | Some file ->
    (try
       Out_channel.with_open_text file (fun oc ->
           output_string oc json;
           output_char oc '\n')
     with Sys_error msg ->
       Printf.eprintf "chorus trace: %s\n" msg;
       exit 1);
    Printf.printf
      "wrote %s: %d events (%d dropped); load in ui.perfetto.dev or \
       chrome://tracing\n"
      file (Obs.Trace.length tr) (Obs.Trace.dropped tr));
  if Obs.Trace.dropped tr > 0 then
    Printf.eprintf
      "chorus trace: warning: the ring buffer overwrote %d events; the \
       trace is only a suffix of the run\n"
      (Obs.Trace.dropped tr);
  match (flight_out, fl) with
  | Some file, Some fl -> dump_flight ~cmd:"trace" fl file
  | _ -> ()

let stats scenario json_out domains =
  let domains = check_domains ~cmd:"stats" domains in
  let scen = find_scenario scenarios scenario in
  let engine = Hw.Engine.create ?domains () in
  let tr = Obs.Trace.create () in
  Hw.Engine.set_tracer engine tr;
  Obs.Trace.enable tr;
  let pvms =
    Hw.Engine.run_fn engine (fun () -> Check.Explore.start engine scen)
  in
  (* Publish the trace ring's own accounting into every registry so
     the drop counter shows up in the text report and the JSON alike:
     a silently truncated trace must be visible in the stats. *)
  List.iter
    (fun pvm ->
      let m = Core.Pvm.metrics pvm in
      Obs.Metrics.set (Obs.Metrics.counter m "trace.events")
        (Obs.Trace.length tr);
      Obs.Metrics.set (Obs.Metrics.counter m "trace.dropped")
        (Obs.Trace.dropped tr))
    pvms;
  if Obs.Trace.dropped tr > 0 then
    Printf.eprintf
      "chorus stats: warning: the trace ring overwrote %d events\n"
      (Obs.Trace.dropped tr);
  let many = List.length pvms > 1 in
  List.iteri
    (fun i pvm ->
      if many then Format.printf "=== pvm %d ===@." i;
      Format.printf "%a@." Obs.Metrics.pp (Core.Pvm.metrics pvm))
    pvms;
  match json_out with
  | None -> ()
  | Some file ->
    let doc =
      Printf.sprintf "{\"schema\":\"chorus-stats/1\",\"pvms\":[%s]}\n"
        (String.concat ","
           (List.map (fun pvm -> Obs.Metrics.to_json (Core.Pvm.metrics pvm))
              pvms))
    in
    (try Out_channel.with_open_text file (fun oc -> output_string oc doc)
     with Sys_error msg ->
       Printf.eprintf "chorus stats: %s\n" msg;
       exit 1);
    Printf.printf "wrote %s\n" file

(* chorus profile SCENARIO: capture a trace of the scenario, fold it
   into the hierarchical cost tree and print the attribution report —
   including the derived §5.3.2 decomposition and an Inspect-based
   residency/pressure snapshot of every PVM the scenario built.

   The synthetic scenario [decomp] replays the Table 6 / Table 7 cell
   shapes (1024 Kb region, 128 touched pages) under tracing for BOTH
   implementations — Chorus PVM and the Mach-style shadow baseline, on
   separate engines so their charges cannot mix — and checks each
   derived decomposition against the paper's published numbers. *)

let run_traced ?flight_out f =
  let tr = Obs.Trace.create () in
  let engine = Hw.Engine.create () in
  Hw.Engine.set_tracer engine tr;
  Obs.Trace.enable tr;
  let fl = Option.map (fun _ -> attach_flight engine) flight_out in
  let r = Hw.Engine.run_fn engine (fun () -> f engine) in
  (match (flight_out, fl) with
  | Some file, Some fl -> dump_flight ~cmd:"profile" fl file
  | _ -> ());
  (r, Obs.Profile.of_trace tr)

(* One Table-6 cycle (zero-fill 128 pages of a 1024 Kb region) then
   one Table-7 cycle (deferred copy, 128 source pages really copied),
   everything torn down so teardown frees balance fault-time
   allocations — the shapes bench/tables.ml measures. *)
let decomp_pages = 128

let decomp_size = 1024 * 1024

let decomp_chorus engine =
  let size = decomp_size and pages = decomp_pages in
  let pvm = Core.Pvm.create ~frames:600 ~engine () in
  let ctx = Core.Context.create pvm in
  let cache = Core.Cache.create pvm () in
  let region =
    Core.Region.create pvm ctx ~addr:0 ~size ~prot:Hw.Prot.read_write cache
      ~offset:0
  in
  for p = 0 to pages - 1 do
    Core.Pvm.touch pvm ctx ~addr:(p * ps) ~access:`Write
  done;
  Core.Region.destroy pvm region;
  Core.Cache.destroy pvm cache;
  let src = Core.Cache.create pvm () in
  let src_region =
    Core.Region.create pvm ctx ~addr:0 ~size ~prot:Hw.Prot.read_write src
      ~offset:0
  in
  for p = 0 to (size / ps) - 1 do
    Core.Pvm.touch pvm ctx ~addr:(p * ps) ~access:`Write
  done;
  let copy = Core.Cache.create pvm () in
  Core.Cache.copy pvm ~strategy:`History ~src ~src_off:0 ~dst:copy ~dst_off:0
    ~size ();
  let copy_region =
    Core.Region.create pvm ctx ~addr:0x4000_0000 ~size
      ~prot:Hw.Prot.read_write copy ~offset:0
  in
  for p = 0 to pages - 1 do
    Core.Pvm.touch pvm ctx ~addr:(p * ps) ~access:`Write
  done;
  Core.Region.destroy pvm copy_region;
  Core.Cache.destroy pvm copy;
  Core.Region.destroy pvm src_region;
  Core.Cache.destroy pvm src

let decomp_mach engine =
  let size = decomp_size and pages = decomp_pages in
  let vm = Shadow.Shadow_vm.create ~frames:900 ~engine () in
  let sp = Shadow.Shadow_vm.space_create vm in
  let e =
    Shadow.Shadow_vm.allocate vm sp ~addr:0 ~size ~prot:Hw.Prot.read_write
  in
  for p = 0 to pages - 1 do
    Shadow.Shadow_vm.touch vm sp ~addr:(p * ps) ~access:`Write
  done;
  Shadow.Shadow_vm.entry_destroy vm e;
  let src =
    Shadow.Shadow_vm.allocate vm sp ~addr:0 ~size ~prot:Hw.Prot.read_write
  in
  for p = 0 to (size / ps) - 1 do
    Shadow.Shadow_vm.touch vm sp ~addr:(p * ps) ~access:`Write
  done;
  let copy =
    Shadow.Shadow_vm.copy_entry vm src ~dst_space:sp ~dst_addr:0x4000_0000
  in
  for p = 0 to pages - 1 do
    Shadow.Shadow_vm.touch vm sp ~addr:(p * ps) ~access:`Write
  done;
  Shadow.Shadow_vm.entry_destroy vm copy;
  Shadow.Shadow_vm.entry_destroy vm src

(* The paper's §5.3.2 per-page / per-copy overheads (ms), including
   the Mach equivalents recomputed from Tables 6/7 by the paper's own
   formulas: demand = (t(1024K,128) - t(1024K,0))/128 - bzero;
   cow = (c(1024K,128) - c(1024K,0))/128 - bcopy;
   tree = c(8K,0) - z(8K,0); protect = (c(1024K,0) - c(8K,0))/127. *)
let paper_chorus =
  [ ("demand-alloc", 0.270); ("cow", 0.310); ("tree-setup", 0.030);
    ("protect", 0.016) ]

let paper_mach =
  [ ("demand-alloc", 0.5277); ("cow", 0.5792); ("tree-setup", 1.130);
    ("protect", 0.0030) ]

let check_derived label (d : Obs.Profile.derived) paper =
  Format.printf "@.%s — derived vs paper (§5.3.2):@." label;
  Format.printf
    "  %d zero-fill faults, %d COW faults, %d copies, teardown share %.4f \
     ms/frame@."
    d.Obs.Profile.zero_fill_faults d.cow_faults d.copies
    (d.teardown_share_ns /. 1e6);
  let worst = ref 0.0 in
  let row name per measured =
    let paper_ms = List.assoc name paper in
    match measured with
    | None -> Format.printf "  %-14s (not exercised; paper %.4f)@." name paper_ms
    | Some ns ->
      let ms = ns /. 1e6 in
      let dev = (ms -. paper_ms) /. paper_ms *. 100. in
      if Float.abs dev > !worst then worst := Float.abs dev;
      Format.printf "  %-14s %8.4f ms/%-5s paper %8.4f   %+6.1f%%@." name ms
        per paper_ms dev
  in
  row "demand-alloc" "page" d.demand_ns;
  row "cow" "page" d.cow_ns;
  row "tree-setup" "copy" d.tree_setup_ns;
  row "protect" "page" d.protect_ns;
  !worst

let profile_decomp folded json_out flight_out =
  let (), chorus_prof = run_traced ?flight_out decomp_chorus in
  let (), mach_prof = run_traced decomp_mach in
  Format.printf "=== Chorus (PVM, history objects) ===@.%a@." Obs.Profile.pp
    chorus_prof;
  Format.printf "=== Mach baseline (shadow objects) ===@.%a@." Obs.Profile.pp
    mach_prof;
  let w1 =
    check_derived "Chorus" (Obs.Profile.derive chorus_prof) paper_chorus
  in
  let w2 =
    check_derived "Mach baseline" (Obs.Profile.derive mach_prof) paper_mach
  in
  Format.printf "@.worst deviation from paper: %.1f%% (threshold 5%%)@."
    (Float.max w1 w2);
  Option.iter
    (fun file ->
      let prefix tag prof =
        Obs.Profile.to_folded prof |> String.split_on_char '\n'
        |> List.filter (fun l -> l <> "")
        |> List.map (fun l -> tag ^ ";" ^ l)
      in
      write_file ~cmd:"profile" file
        (String.concat "\n"
           (prefix "chorus" chorus_prof @ prefix "mach" mach_prof)
        ^ "\n");
      Printf.printf "wrote %s (folded stacks)\n" file)
    folded;
  Option.iter
    (fun file ->
      let doc =
        Obs.Json.Obj
          [
            ("schema", Obs.Json.Str "chorus-profile-decomp/1");
            ("chorus", Obs.Profile.to_json chorus_prof);
            ("mach", Obs.Profile.to_json mach_prof);
          ]
      in
      write_file ~cmd:"profile" file (Obs.Json.to_string doc ^ "\n");
      Printf.printf "wrote %s\n" file)
    json_out;
  if Float.max w1 w2 > 5.0 then begin
    Printf.eprintf
      "chorus profile decomp: derived decomposition deviates more than 5%% \
       from the paper\n";
    exit 1
  end

let profile scenario folded json_out flight_out =
  if String.equal scenario "decomp" then profile_decomp folded json_out flight_out
  else begin
    let scen = find_scenario scenarios scenario in
    let pvms, prof =
      run_traced ?flight_out (fun engine -> Check.Explore.start engine scen)
    in
    Format.printf "%a@." Obs.Profile.pp prof;
    let residencies = List.map Core.Inspect.residency pvms in
    let many = List.length residencies > 1 in
    List.iteri
      (fun i r ->
        if many then Format.printf "=== pvm %d ===@." i;
        Format.printf "%a@." Core.Inspect.pp_residency r)
      residencies;
    Option.iter
      (fun file ->
        write_file ~cmd:"profile" file (Obs.Profile.to_folded prof);
        Printf.printf "wrote %s (folded stacks)\n" file)
      folded;
    Option.iter
      (fun file ->
        let doc =
          match Obs.Profile.to_json prof with
          | Obs.Json.Obj fields ->
            Obs.Json.Obj
              (fields
              @ [
                  ( "residency",
                    Obs.Json.List
                      (List.map Core.Inspect.residency_json residencies) );
                ])
          | j -> j
        in
        write_file ~cmd:"profile" file (Obs.Json.to_string doc ^ "\n");
        Printf.printf "wrote %s\n" file)
      json_out
  end

(* chorus check SCENARIO: run under the sanitizer and the
   schedule-perturbation harness.  One reference run with FIFO
   tie-break, then one per seed with equal-time fibres legally
   permuted; every run must pass the quiescent invariant sweep and the
   §3.3.3 blocking-discipline analysis of its trace, and all runs must
   agree on the observable outcome (stats counters and frame-pool
   occupancy). *)

(* Read every live, readable region back through the GMI and digest
   the bytes — the logical memory contents a program could observe.
   Runs on the scenario's own (drained) engine, so pulls and faults it
   triggers are legal; callers must capture anything else they want to
   compare (stats, state digests) BEFORE this perturbs the state. *)
let content_digest engine pvms =
  Hw.Engine.run_fn engine (fun () ->
      let b = Buffer.create 4096 in
      List.iter
        (fun pvm ->
          List.iter
            (fun (ctx : Core.Types.context) ->
              if ctx.Core.Types.ctx_alive then
                List.iter
                  (fun (r : Core.Types.region) ->
                    if r.Core.Types.r_alive && Hw.Prot.allows r.r_prot `Read
                    then begin
                      Buffer.add_string b
                        (Printf.sprintf "|%d@%x:" ctx.ctx_id r.r_addr);
                      Buffer.add_bytes b
                        (Core.Pvm.read pvm ctx ~addr:r.r_addr ~len:r.r_size)
                    end)
                  ctx.ctx_regions)
            (List.sort
               (fun (a : Core.Types.context) (b : Core.Types.context) ->
                 compare a.ctx_id b.ctx_id)
               pvm.Core.Types.contexts))
        pvms;
      Digest.to_hex (Digest.string (Buffer.contents b)))

let check scenario seeds every_event bundle_dir =
  let scen = find_scenario scenarios scenario in
  let deterministic =
    match scen.Check.Explore.oracle with
    | Schedule_independent -> true
    | Outcomes _ | No_oracle -> false
  in
  let failures = ref 0 in
  let fail label fmt =
    incr failures;
    Format.eprintf ("%s: " ^^ fmt ^^ "@.") label
  in
  let run_one label tie =
    let engine = Hw.Engine.create ~tie_break:tie () in
    let tr = Obs.Trace.create () in
    Hw.Engine.set_tracer engine tr;
    Obs.Trace.enable tr;
    let _fl = attach_flight engine in
    Hw.Engine.enable_watchdog engine ();
    let outcome, pvms =
      Check.Explore.execute ~every_event ~max_steps:max_int engine scen
    in
    (* Exit discipline: 1 = a violation was found (and bundled), 2 =
       the harness itself broke (also bundled, as kind "crash"). *)
    let kind = outcome.Check.Explore.o_kind in
    if kind <> "done" then begin
      let path =
        Obs.Bundle.write ~dir:bundle_dir
          (Check.Forensics.bundle ~scenario ~inject:[] engine pvms outcome)
      in
      Printf.eprintf
        "chorus check: wrote crash bundle %s (re-drive it with: chorus \
         replay %s)\n"
        path path;
      if kind = "crash" then begin
        Printf.eprintf "chorus check %s: harness error: %s\n" scenario
          outcome.o_detail;
        exit 2
      end;
      fail label "%s:@,%s" kind outcome.o_detail;
      Printf.eprintf "chorus check %s: %d failure(s)\n" scenario !failures;
      exit 1
    end;
    List.iter
      (fun v -> fail label "%a" Check.Blocking.pp_violation v)
      (Check.Blocking.analyze tr);
    let stats_str =
      String.concat "\n"
        (List.map
           (fun pvm ->
             Format.asprintf "%a used=%d" Core.Types.pp_stats
               (Core.Pvm.stats pvm)
               (Hw.Phys_mem.used_frames (Core.Pvm.memory pvm)))
           pvms)
    in
    let state_digest = String.concat "+" outcome.o_digests in
    (* last: the read-back faults pages in and perturbs the state *)
    let contents = content_digest engine pvms in
    (stats_str, state_digest, contents)
  in
  let ref_stats, ref_state, ref_contents = run_one "fifo" Hw.Engine.Fifo in
  for seed = 1 to seeds do
    let label = Printf.sprintf "seed %d" seed in
    let stats_str, state_digest, contents =
      run_one label (Hw.Engine.Seeded seed)
    in
    if deterministic && not (String.equal stats_str ref_stats) then
      fail label "schedule-dependent outcome:@,--- fifo@,%s@,--- %s@,%s"
        ref_stats label stats_str;
    if deterministic && not (String.equal state_digest ref_state) then
      fail label
        "schedule-dependent observable state: Inspect.digest %s, fifo had %s"
        state_digest ref_state;
    (* even racing scenarios must converge to one memory content here:
       contend's writers store constant bytes at disjoint offsets *)
    if not (String.equal contents ref_contents) then
      fail label
        "schedule-dependent memory contents: read-back digest %s, fifo had %s"
        contents ref_contents
  done;
  if !failures = 0 then
    Printf.printf
      "chorus check %s: OK — fifo + %d seed(s)%s; quiescent sweep and \
       blocking discipline hold; memory contents schedule-independent%s\n"
      scenario seeds
      (if every_event then ", per-event structural sweep" else "")
      (if deterministic then "; outcome and state schedule-independent"
       else "")
  else begin
    Printf.eprintf "chorus check %s: %d failure(s)\n" scenario !failures;
    exit 1
  end

(* Validate the runtime may-hold-while-acquiring pairs recorded by
   Obs.Lockstat against the hierarchy chorus-lint enforces statically
   (Lint.Lock_order) — the dynamic half of the L6 loop: the declared
   order can never silently drift from what the engine actually does.
   A pair involving a lock class outside the catalogue is itself a
   violation: every engine mutex must carry its class tag. *)
let check_order_witnesses ~label =
  let pairs = Obs.Lockstat.witness_pairs () in
  let bad =
    List.filter
      (fun (held, acq, _) ->
        match (Lint.Lock_order.of_name held, Lint.Lock_order.of_name acq) with
        | Some h, Some a -> not (Lint.Lock_order.allows ~held:h ~acq:a)
        | _ -> true)
      pairs
  in
  if bad = [] then
    Printf.printf
      "%s: order witnesses OK — %d pair(s) within the Lint.Lock_order \
       hierarchy%s\n"
      label (List.length pairs)
      (if pairs = [] then ""
       else
         ": "
         ^ String.concat ", "
             (List.map
                (fun (h, a, n) -> Printf.sprintf "%s<%s x%d" h a n)
                pairs))
  else begin
    List.iter
      (fun (h, a, n) ->
        Printf.eprintf
          "%s: lock-order violation — acquired %s while holding %s (%d \
           time(s))\n"
          label a h n)
      bad;
    exit 1
  end

(* chorus crossval: the oracle-twin gate.  Every scenario runs twice
   from scratch — once on the cooperative sequential engine, once on
   the domain-parallel engine — and the concatenated Inspect digests
   must match byte-for-byte.  The chorus scenarios are serial-class
   programs (the parallel engine runs them in exact heap order), so
   any divergence is an engine bug; [storm] additionally spawns
   genuinely concurrent affinity-classed workers whose final state is
   deterministic by construction. *)
let crossval domains =
  Obs.Lockstat.enable_witnessing ();
  let outcomes = List.map (Check.Crossval.run_pair ~domains) scenarios in
  List.iter
    (fun o -> Format.printf "%a@." Check.Crossval.pp_outcome o)
    outcomes;
  let bad = List.filter (fun o -> not o.Check.Crossval.o_ok) outcomes in
  if bad = [] then begin
    Printf.printf
      "chorus crossval: OK — %d scenario(s) digest-identical, sequential vs \
       %d domain(s)\n"
      (List.length outcomes) domains;
    check_order_witnesses ~label:"chorus crossval"
  end
  else begin
    Printf.eprintf "chorus crossval: %d scenario(s) diverged\n"
      (List.length bad);
    exit 1
  end

(* chorus bench: the contended many-context fault-throughput
   microbenchmark, standalone.  Runs Crossval's storm on the
   sequential engine (the digest oracle), on the 1-domain pool (the
   uniprocessor model — the throughput baseline) and on the requested
   domain count, and reports faults per simulated second.  The full
   sweep with wall-clock columns lives in the bench harness
   (bench/main.exe parallel). *)
let bench domains workers pages rounds with_stats =
  if domains < 1 then begin
    Printf.eprintf "chorus bench: --domains must be >= 1\n";
    exit 2
  end;
  (* Wall-clock wait/hold columns of the contention report; counts are
     maintained regardless.  Timing never touches the simulated clock,
     so the digest checks below are unaffected. *)
  if with_stats then
    Obs.Lockstat.enable_timing ~clock:(fun () ->
        int_of_float (Unix.gettimeofday () *. 1e9));
  Obs.Lockstat.enable_witnessing ();
  let scen = Check.Crossval.storm ~workers ~pages ~rounds () in
  let run_once d =
    let engine =
      Hw.Engine.create ?domains:(if d = 0 then None else Some d) ()
    in
    let pvms =
      Hw.Engine.run_fn engine (fun () -> Check.Explore.start engine scen)
    in
    let faults =
      List.fold_left
        (fun acc pvm -> acc + (Core.Pvm.stats pvm).Core.Types.n_faults)
        0 pvms
    in
    let digest = String.concat "+" (List.map Core.Inspect.digest pvms) in
    (faults, Hw.Engine.now engine, digest, engine, pvms)
  in
  Printf.printf
    "chorus bench: storm %d workers x %d pages x %d rounds, %d domain(s)\n"
    workers pages rounds domains;
  let _, _, seq_digest, _, _ = run_once 0 in
  let uni_faults, uni_sim, uni_digest, _, _ = run_once 1 in
  let faults, sim, digest, engine, pvms = run_once domains in
  let tp f s = float_of_int f /. Hw.Sim_time.to_ms_float s *. 1e3 in
  Printf.printf "  1 domain : %7d faults in %10.1f sim ms = %8.0f faults/sim-s\n"
    uni_faults
    (Hw.Sim_time.to_ms_float uni_sim)
    (tp uni_faults uni_sim);
  Printf.printf
    "  %d domains: %7d faults in %10.1f sim ms = %8.0f faults/sim-s \
     (%.2fx the uniprocessor)\n"
    domains faults
    (Hw.Sim_time.to_ms_float sim)
    (tp faults sim)
    (tp faults sim /. tp uni_faults uni_sim);
  if with_stats then begin
    let makespan = Hw.Engine.now engine in
    Format.printf "@.%a@."
      (fun ppf () ->
        Obs.Profile.pp_utilization ppf ~busy:(Hw.Engine.cpu_busy engine)
          ~makespan)
      ();
    let snaps =
      Hw.Engine.pool_lock_stats engine
      @ List.concat_map Core.Pvm.lock_stats pvms
    in
    Format.printf "%a@." Obs.Profile.pp_contention
      (Obs.Profile.contention snaps);
    (* Hot-shard attribution: the summed gmap counters hide skew. *)
    List.iter
      (fun pvm ->
        let gm = pvm.Core.Types.gmap in
        let probes = Core.Shard_map.probes_per_shard gm in
        let waits = Core.Shard_map.lock_waits_per_shard gm in
        Format.printf "@[<v>gmap shards (probes / lock waits):@,";
        Array.iteri
          (fun i p ->
            Format.printf "  shard%-3d %10d %10d@," i p waits.(i))
          probes;
        Format.printf "@]@.")
      pvms
  end;
  if
    (not (String.equal digest seq_digest))
    || not (String.equal uni_digest seq_digest)
  then begin
    Printf.eprintf
      "chorus bench: parallel digest diverged from the sequential oracle\n";
    exit 1
  end;
  Printf.printf "  digests match the sequential oracle\n";
  check_order_witnesses ~label:"chorus bench"

(* chorus explore SCENARIO: systematic schedule exploration with the
   Check.Explore DPOR model checker.  [contend] and [pressure] run
   Model programs through the full PVM under memory pressure and check
   every schedule's outcome against the sequential reference model's
   serializations; the other scenarios assert their observable
   Inspect digest is schedule-independent. *)

let explore_scenario = function
  | "contend" -> Check.Explore.contend_model
  | name -> find_scenario (Check.Explore.pressure :: scenarios) name

let explore scenario bound max_schedules show_stats schedule_out inject
    bundle_dir =
  let scen = explore_scenario scenario in
  (match
     List.find_opt
       (fun n -> not (List.mem_assoc n Check.Forensics.injections))
       inject
   with
  | Some n ->
    Printf.eprintf "chorus explore: unknown injection '%s' (available: %s)\n"
      n
      (String.concat ", " (List.map fst Check.Forensics.injections));
    exit 2
  | None -> ());
  Check.Forensics.with_injections inject @@ fun () ->
  let result = Check.Explore.run ?bound ?max_schedules scen in
  let s = result.Check.Explore.r_stats in
  match result.Check.Explore.r_violation with
  | None ->
    Printf.printf
      "chorus explore %s: OK — %d schedules (%s%s), %d distinct outcomes, %d \
       reversible races, %d sleep-set + %d bound prunes%s\n"
      scenario s.Check.Explore.schedules
      (match bound with
      | None -> "exhaustive DPOR"
      | Some k -> Printf.sprintf "preemption bound %d" k)
      (if s.exhausted then "" else "; budget hit, NOT exhausted")
      s.distinct_outcomes s.races
      (s.sleep_blocked + s.sleep_skips)
      s.bound_pruned
      (match inject with
      | [] -> ""
      | is -> Printf.sprintf " [injected: %s]" (String.concat ", " is));
    if show_stats then Format.printf "%a@." Check.Explore.pp_stats s
  | Some v ->
    Format.eprintf "chorus explore %s: FAILED@.%a@." scenario
      Check.Explore.pp_violation v;
    if show_stats then Format.eprintf "%a@." Check.Explore.pp_stats s;
    let bundle, outcome =
      Check.Forensics.capture ~inject scen v.Check.Explore.v_schedule
    in
    (match outcome.Check.Explore.o_kind with
    | "done" | "sleep" ->
      Format.eprintf "warning: replay did not reproduce the violation@."
    | kind ->
      Format.eprintf "replay of the offending schedule reproduces: %s@." kind);
    let path = Obs.Bundle.write ~dir:bundle_dir bundle in
    Printf.printf "wrote crash bundle %s (re-drive it with: chorus replay %s)\n"
      path path;
    Option.iter
      (fun file ->
        let doc =
          Obs.Json.Obj
            [
              ("schema", Obs.Json.Str "chorus-explore-schedule/1");
              ("scenario", Obs.Json.Str scenario);
              ("kind", Obs.Json.Str v.Check.Explore.v_kind);
              ( "schedule",
                Obs.Json.List
                  (List.map
                     (fun f -> Obs.Json.Num (float_of_int f))
                     v.Check.Explore.v_schedule) );
            ]
        in
        write_file ~cmd:"explore" file (Obs.Json.to_string doc ^ "\n");
        Printf.printf "wrote %s\n" file)
      schedule_out;
    exit 1

(* chorus replay BUNDLE: re-execute a crash bundle's recorded schedule
   decision-for-decision through the forced-pick driver (re-arming any
   recorded fault injections) and require the identical failure —
   kind, per-PVM Inspect digests and sanitizer verdicts. *)
let replay_bundle path =
  match Obs.Bundle.read path with
  | Error msg ->
    Printf.eprintf "chorus replay: %s\n" msg;
    exit 2
  | Ok b ->
    let scen =
      find_scenario
        (Check.Explore.contend_model :: Check.Explore.pressure :: scenarios)
        b.Obs.Bundle.scenario
    in
    Printf.printf "replaying %s:\n  scenario %s, %d decisions%s, recorded \
                   failure %s at t=%s\n"
      path b.Obs.Bundle.scenario
      (List.length b.Obs.Bundle.schedule)
      (match b.Obs.Bundle.inject with
      | [] -> ""
      | is -> Printf.sprintf ", injections [%s]" (String.concat ", " is))
      b.Obs.Bundle.kind
      (Format.asprintf "%a" Hw.Sim_time.pp b.Obs.Bundle.sim_now);
    let outcome = Check.Forensics.replay scen b in
    let first_line s =
      match String.index_opt s '\n' with
      | Some i -> String.sub s 0 i ^ " ..."
      | None -> s
    in
    Printf.printf "replay outcome: %s — %s\n" outcome.Check.Explore.o_kind
      (first_line outcome.Check.Explore.o_detail);
    (match Check.Forensics.reproduces b outcome with
    | Ok () ->
      Printf.printf
        "reproduced: failure kind, state digests and sanitizer verdicts \
         match the bundle\n"
    | Error msg ->
      Printf.eprintf "chorus replay: bundle NOT reproduced:\n%s\n" msg;
      exit 1)

let n_arg ~doc default =
  Arg.(value & pos 0 int default & info [] ~docv:"N" ~doc)

let scenario_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"SCENARIO" ~doc:"one of: fig3, fork, dsm, ipc, contend")

let explore_scenario_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"SCENARIO"
        ~doc:"one of: fig3, fork, dsm, ipc, contend, pressure")

let flight_arg cmd =
  Arg.(
    value
    & opt (some string) None
    & info [ "flight" ] ~docv:"FILE"
        ~doc:
          (Printf.sprintf
             "additionally run the %s with the flight recorder enabled and \
              write its ring and decision log as JSON to $(docv)"
             cmd))

let bundle_dir_arg cmd =
  Arg.(
    value & opt string "."
    & info [ "bundle-dir" ] ~docv:"DIR"
        ~doc:
          (Printf.sprintf
             "directory %s writes crash bundles to on failure (created if \
              missing; default: the current directory)"
             cmd))

let cmds =
  [
    Cmd.v (Cmd.info "info" ~doc:"inventory and pointers")
      Term.(const print_info $ const ());
    Cmd.v (Cmd.info "fig3" ~doc:"replay the paper's Figure 3")
      Term.(const fig3 $ const ());
    Cmd.v
      (Cmd.info "fork" ~doc:"run N fork/exit rounds on Chorus/MIX")
      Term.(const fork $ n_arg ~doc:"number of forks" 16);
    Cmd.v
      (Cmd.info "dsm" ~doc:"ping-pong a shared page between two sites")
      Term.(const dsm $ n_arg ~doc:"number of writes" 10);
    Cmd.v
      (Cmd.info "inspect" ~doc:"dump live PVM structures for a tiny scenario")
      Term.(const inspect $ const ());
    Cmd.v
      (Cmd.info "trace"
         ~doc:
           "run a scenario with tracing enabled and emit Chrome trace_event \
            JSON (Perfetto-loadable)")
      Term.(
        const trace $ scenario_arg
        $ Arg.(
            value
            & opt (some string) None
            & info [ "o"; "output" ] ~docv:"FILE"
                ~doc:"write the trace to $(docv) instead of stdout")
        $ flight_arg "trace"
        $ Arg.(
            value
            & opt (some int) None
            & info [ "domains" ] ~docv:"N"
                ~doc:
                  "run on the domain-parallel engine with $(docv) worker \
                   domains; the merged trace carries one track per \
                   simulated CPU (incompatible with --flight)"));
    Cmd.v
      (Cmd.info "check"
         ~doc:
           "run a scenario under the whole-state invariant sanitizer and \
            the schedule-perturbation harness: N seeded reorderings of \
            equal-time fibres, each swept for invariant violations and \
            \xc2\xa73.3.3 blocking-discipline breaches, with outcomes \
            compared across schedules.  Every run carries the flight \
            recorder and the stall watchdog; any sanitizer violation, \
            deadlock, watchdog alarm or crash writes a replayable crash \
            bundle (exit 1 for a violation, 2 for a harness error)")
      Term.(
        const check $ scenario_arg
        $ Arg.(
            value & opt int 3
            & info [ "seeds" ] ~docv:"N"
                ~doc:"number of perturbed schedules to run besides FIFO")
        $ Arg.(
            value & flag
            & info [ "every-event" ]
                ~doc:
                  "additionally run the structural invariant sweep after \
                   every engine event (slow)")
        $ bundle_dir_arg "check");
    Cmd.v
      (Cmd.info "crossval"
         ~doc:
           "run every scenario on the sequential engine and again on the \
            domain-parallel engine and require byte-identical observable \
            digests — the oracle-twin refinement gate for the parallel \
            run mode (exit 1 on any divergence)")
      Term.(
        const crossval
        $ Arg.(
            value & opt int 4
            & info [ "domains" ] ~docv:"N"
                ~doc:"worker-domain count for the parallel run (>= 1)"));
    Cmd.v
      (Cmd.info "bench"
         ~doc:
           "run the contended many-context fault storm on the \
            domain-parallel engine and report fault throughput in \
            simulated time against the 1-domain uniprocessor model \
            (digests are checked against the sequential oracle; exit 1 \
            on divergence)")
      Term.(
        const bench
        $ Arg.(
            value & opt int 4
            & info [ "domains" ] ~docv:"N"
                ~doc:"simulated CPU / worker-domain count (>= 1)")
        $ Arg.(
            value & opt int 16
            & info [ "workers" ] ~docv:"N" ~doc:"faulting contexts")
        $ Arg.(
            value & opt int 64
            & info [ "pages" ] ~docv:"N" ~doc:"pages per context")
        $ Arg.(
            value & opt int 2
            & info [ "rounds" ] ~docv:"N" ~doc:"passes over each working set")
        $ Arg.(
            value & flag
            & info [ "stats" ]
                ~doc:
                  "after the parallel run, print the per-CPU utilization \
                   table (busy/idle per simulated CPU against the \
                   makespan, parallel efficiency), the lock-contention \
                   tree (engine pool, per-PVM mm, per-shard gmap, with \
                   wall-clock wait/hold times) and the per-shard hot-shard \
                   attribution"));
    Cmd.v
      (Cmd.info "explore"
         ~doc:
           "systematically explore a scenario's schedules with the DPOR \
            model checker: every reordering of equal-time fibres (pruned by \
            sleep sets and dynamic partial-order reduction, or by a \
            preemption bound), each swept by the structural sanitizer at \
            every engine event and checked against a refinement oracle \
            ($(b,contend): the sequential flat-memory model's \
            serializations; others: schedule-independent observable \
            digest).  On a violation the minimal offending schedule is \
            replayed, written out as a crash bundle for $(b,chorus replay) \
            and can be saved with $(b,--schedule-out).  $(b,--inject) arms \
            a named fault (recorded in the bundle) to force a failure")
      Term.(
        const explore $ explore_scenario_arg
        $ Arg.(
            value
            & opt (some int) None
            & info [ "bound" ] ~docv:"K"
                ~doc:
                  "preemption-bounded DFS with at most $(docv) preemptions \
                   instead of exhaustive DPOR")
        $ Arg.(
            value
            & opt (some int) None
            & info [ "max-schedules" ] ~docv:"N"
                ~doc:"stop after exploring $(docv) schedules")
        $ Arg.(
            value & flag
            & info [ "stats" ] ~doc:"print the full exploration statistics")
        $ Arg.(
            value
            & opt (some string) None
            & info [ "schedule-out" ] ~docv:"FILE"
                ~doc:"on failure, write the offending schedule as JSON")
        $ Arg.(
            value & opt_all string []
            & info [ "inject" ] ~docv:"FAULT"
                ~doc:
                  "arm a named fault injection for the exploration \
                   (repeatable): evict-claim-late, skip-insert-probe")
        $ bundle_dir_arg "explore");
    Cmd.v
      (Cmd.info "replay"
         ~doc:
           "deterministically re-execute a crash bundle written by \
            $(b,chorus check) or $(b,chorus explore): re-arm its recorded \
            fault injections, drive the engine through the bundle's \
            schedule-decision prefix with the forced-pick scheduler, and \
            require the identical failure — same kind, same per-PVM \
            Inspect digests, same sanitizer verdicts.  Exit 0 when \
            reproduced, 1 when the replay diverges, 2 when the bundle \
            cannot be read")
      Term.(
        const replay_bundle
        $ Arg.(
            required
            & pos 0 (some string) None
            & info [] ~docv:"BUNDLE" ~doc:"path to a chorus-bundle/1 JSON"));
    Cmd.v
      (Cmd.info "stats"
         ~doc:
           "run a scenario and print its metrics-registry report (counters, \
            fault-latency histograms, per-primitive attribution)")
      Term.(
        const stats $ scenario_arg
        $ Arg.(
            value
            & opt (some string) None
            & info [ "json" ] ~docv:"FILE"
                ~doc:
                  "additionally write the report as machine-readable JSON \
                   (schema chorus-stats/1) to $(docv)")
        $ Arg.(
            value
            & opt (some int) None
            & info [ "domains" ] ~docv:"N"
                ~doc:
                  "run on the domain-parallel engine with $(docv) worker \
                   domains; counters and histograms aggregate across \
                   domains, and per-CPU busy/idle counters appear under \
                   engine.cpuN.*"));
    Cmd.v
      (Cmd.info "profile"
         ~doc:
           "run a scenario with tracing enabled and print the \
            cost-attribution profile: hierarchical cost tree (per \
            fault-resolution kind, per primitive, per cache), counter \
            series, residency snapshot, and the \xc2\xa75.3.2 overhead \
            decomposition derived from the measured charges.  The synthetic \
            scenario $(b,decomp) replays the Table 6/7 cell shapes for both \
            the Chorus PVM and the Mach-style shadow baseline and checks \
            the derived decomposition against the paper (exit 1 beyond 5%)")
      Term.(
        const profile
        $ Arg.(
            required
            & pos 0 (some string) None
            & info [] ~docv:"SCENARIO"
                ~doc:"one of: fig3, fork, dsm, ipc, contend, decomp")
        $ Arg.(
            value
            & opt (some string) None
            & info [ "folded" ] ~docv:"FILE"
                ~doc:
                  "write folded stacks (flamegraph.pl / speedscope \
                   compatible) to $(docv)")
        $ Arg.(
            value
            & opt (some string) None
            & info [ "json" ] ~docv:"FILE"
                ~doc:
                  "write the profile as JSON (schema chorus-profile/1) to \
                   $(docv)")
        $ flight_arg "profile");
  ]

let () =
  let doc = "the Chorus GMI/PVM reproduction" in
  exit (Cmd.eval (Cmd.group (Cmd.info "chorus" ~doc) cmds))
