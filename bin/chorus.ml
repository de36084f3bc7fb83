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
     explore SCENARIO   DPOR schedule exploration
     profile SCENARIO   cost-attribution profile
     replay BUNDLE      deterministically re-execute a crash bundle

   Failure forensics: check and explore write a crash bundle
   (Obs.Bundle, schema chorus-bundle/1) whenever a sanitizer sweep, a
   blocking-discipline breach, the watchdog or an uncaught exception
   kills a run; replay re-drives the bundle's recorded schedule
   decision-for-decision and asserts the same failure reappears.  The
   trace and profile paths accept --flight to dump the flight
   recorder's ring for the same runs.

   The full evaluation lives in bench/main.exe; the walkthroughs in
   examples/. *)

open Cmdliner
open Workloads

let ps = 8192

(* Every integer on the command line passes through here: a value below
   [min] is a usage error (exit 2) naming the argument. *)
let at_least ~cmd ~arg min n =
  if n < min then begin
    Printf.eprintf "chorus %s: %s must be >= %d\n" cmd arg min;
    exit 2
  end;
  n

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
      let _, _, src = Scenarios.fig3_tree engine ~register:ignore in
      Format.printf "%a@." Core.Pvm.pp_history_tree src)

let fork n =
  let n = at_least ~cmd:"fork" ~arg:"N" 0 n in
  in_sim (fun engine ->
      let site, m, shell =
        Scenarios.fork_shell engine ~register:ignore
      in
      let pvm = site.Nucleus.Site.pvm in
      Core.Pvm.reset_stats pvm;
      let t0 = Hw.Engine.now engine in
      Scenarios.fork_rounds m shell n;
      let stats = Core.Pvm.stats pvm in
      Printf.printf
        "%d fork/exit rounds: %.2f sim-ms, %d pages really copied, %d \
         history objects, invariants %s\n"
        n
        (float_of_int (Hw.Engine.now engine - t0) /. 1e6)
        stats.Core.Types.n_cow_copies stats.n_history_created
        (match Check.Sanitizer.run pvm with
        | [] -> "OK"
        | e ->
          String.concat "; "
            (List.map (Format.asprintf "%a" Check.Sanitizer.pp_violation) e)))

let dsm n =
  let n = at_least ~cmd:"dsm" ~arg:"N" 0 n in
  in_sim (fun engine ->
      let seg, a, b = Scenarios.dsm_sites engine ~register:ignore in
      let t0 = Hw.Engine.now engine in
      Scenarios.dsm_writes a b n;
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

(* Every subcommand resolves its scenario here, in the one table
   Workloads.Scenarios. *)
let scenario_names =
  String.concat ", "
    (List.map (fun s -> s.Check.Explore.name) Scenarios.all)

let find_scenario name =
  match Scenarios.find name with
  | Some s -> s
  | None ->
    Printf.eprintf "chorus: unknown scenario '%s' (available: %s)\n" name
      scenario_names;
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

let trace scenario out flight_out domains =
  let domains = Option.map (at_least ~cmd:"trace" ~arg:"--domains" 1) domains in
  if flight_out <> None && domains <> None then begin
    Printf.eprintf
      "chorus trace: --flight requires the sequential engine; drop --domains \
       (the flight recorder logs a serial decision sequence the pool does \
       not produce)\n";
    exit 2
  end;
  let scen = find_scenario scenario in
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
  let domains = Option.map (at_least ~cmd:"stats" ~arg:"--domains" 1) domains in
  let scen = find_scenario scenario in
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
      Obs.Json.Obj
        [
          ("schema", Obs.Json.Str "chorus-stats/1");
          ( "pvms",
            Obs.Json.List
              (List.map (fun pvm -> Obs.Metrics.to_json (Core.Pvm.metrics pvm))
                 pvms) );
        ]
    in
    write_file ~cmd:"stats" file (Obs.Json.to_string doc ^ "\n");
    Printf.printf "wrote %s\n" file

(* chorus profile SCENARIO: capture a trace of the scenario, fold it
   into the hierarchical cost tree and print the attribution report —
   including the derived §5.3.2 decomposition and an Inspect-based
   residency/pressure snapshot of every PVM the scenario built.

   The synthetic scenario [decomp] runs the §5.3.2 decomposition cycle
   (Paper.decomp) under tracing for BOTH implementations — Chorus PVM
   and the Mach-style shadow baseline, on separate engines so their
   charges cannot mix — and checks each derived decomposition against
   the paper's published numbers. *)

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

let check_derived label (d : Obs.Profile.derived) impl =
  Format.printf "@.%s — derived vs paper (§5.3.2):@." label;
  Format.printf
    "  %d zero-fill faults, %d COW faults, %d copies, teardown share %.4f \
     ms/frame@."
    d.Obs.Profile.zero_fill_faults d.cow_faults d.copies
    (d.teardown_share_ns /. 1e6);
  let worst = ref 0.0 in
  let row name per measured =
    let paper_ms = Paper.derived impl name in
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
  let decomp impl engine = ignore (Paper.decomp impl engine) in
  let (), chorus_prof = run_traced ?flight_out (decomp Paper.Chorus) in
  let (), mach_prof = run_traced (decomp Paper.Mach) in
  Format.printf "=== Chorus (PVM, history objects) ===@.%a@." Obs.Profile.pp
    chorus_prof;
  Format.printf "=== Mach baseline (shadow objects) ===@.%a@." Obs.Profile.pp
    mach_prof;
  let w1 =
    check_derived "Chorus" (Obs.Profile.derive chorus_prof) Paper.Chorus
  in
  let w2 =
    check_derived "Mach baseline" (Obs.Profile.derive mach_prof) Paper.Mach
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
    let scen = find_scenario scenario in
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
  let seeds = at_least ~cmd:"check" ~arg:"--seeds" 0 seeds in
  let scen = find_scenario scenario in
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
  let domains = at_least ~cmd:"crossval" ~arg:"--domains" 1 domains in
  Obs.Lockstat.enable_witnessing ();
  let outcomes =
    List.map (Check.Crossval.run_pair ~domains) Scenarios.workloads
  in
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

(* chorus explore SCENARIO: systematic schedule exploration with the
   Check.Explore DPOR model checker.  [contend] and [pressure] run
   Model programs through the full PVM under memory pressure and check
   every schedule's outcome against the sequential reference model's
   serializations; the other scenarios assert their observable
   Inspect digest is schedule-independent. *)

let explore scenario bound max_schedules show_stats schedule_out inject
    bundle_dir =
  let bound = Option.map (at_least ~cmd:"explore" ~arg:"--bound" 0) bound in
  let max_schedules =
    Option.map (at_least ~cmd:"explore" ~arg:"--max-schedules" 1) max_schedules
  in
  let scen =
    find_scenario (if scenario = "contend" then "contend-model" else scenario)
  in
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
    let scen = find_scenario b.Obs.Bundle.scenario in
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
    & info [] ~docv:"SCENARIO" ~doc:("one of: " ^ scenario_names))

let explore_scenario_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"SCENARIO"
        ~doc:
          ("one of: " ^ scenario_names
         ^ "; $(b,contend) names contend-model, its Model program"))

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
                ~doc:("one of: " ^ scenario_names ^ ", decomp"))
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
