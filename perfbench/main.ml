(* Host-time benchmark of the GMI/PVM simulator (see README.md).

   main.exe --workload tables|make|storm|storm-pool --seed N --seconds S
            --trace 0|1 [--perturb-reference]

   --trace 0 measures the end-to-end metrics with tracing off; --trace 1
   is the separate traced run that reports the per-layer metrics.  The
   last line of standard output is one JSON object with the keys
   correct, attempted, failed and metrics.  Every number is labelled
   host (time the simulator takes) or sim (time the modelled Sun-3/60
   would take). *)

open Workloads

type workload = Tables | Make | Storm | Storm_pool

let workload_of_string = function
  | "tables" -> Some Tables
  | "make" -> Some Make
  | "storm" -> Some Storm
  | "storm-pool" -> Some Storm_pool
  | _ -> None

let workload_name = function
  | Tables -> "tables"
  | Make -> "make"
  | Storm -> "storm"
  | Storm_pool -> "storm-pool"

let nproc = Domain.recommended_domain_count ()

(* Never more worker domains than the host has CPUs. *)
let pool_domains = min 2 nproc

let domains_of = function Storm_pool -> pool_domains | _ -> 0

(* op_p50_us: op latencies are summarised per chunk of consecutive
   passes holding at least [chunk_ops] ops, and the p50 is the median
   over the chunks of each chunk's central mean: a burst of host noise
   then moves one chunk, not the run.  The central mean is the mean of
   the latencies ranked from p45 to p55.  On a unimodal distribution it
   is close to the median.  On the storm exactly half the ops (the
   second round's, which find their pages mapped and do not yield)
   take about 1 us and the other half wait out fifteen peers' slices:
   a rank-exact median would jump between the two modes whenever a host
   interruption moved one op across, while the central mean moves by
   one op in 800.

   op_tail_us is taken over op positions instead.  Every pass does the
   same simulated work, so position i is the same simulated op in every
   pass.  A uniform sample of [kept_passes] passes is kept (reservoir
   sampling, seeded from --seed), each position's latency is its median
   over the kept passes, and the tail is the p99 of those medians.  A
   host interruption lands on a given position in a minority of passes,
   so the median drops it: the tail is the program's slowest ops, not
   the host's hiccups.  On make, whose 32 compiles a pass are too few
   positions for p99 to leave samples beyond it, that is the slowest
   compile.  The chunked p99, host hiccups included, is printed beside
   it. *)
let chunk_ops = 1000
let tail_pct = 99.
let kept_passes = 63

(* --- passes -------------------------------------------------------- *)

let run_pass wl ~seed ~cost ~check =
  let p = new_pass () in
  (try
     match wl with
     | Tables -> tables_pass ~seed ~cost ~check p
     | Make -> make_check p (make_pass ~seed p)
     | Storm -> storm_check p (storm_pass ~seed ~domains:0 p)
     | Storm_pool -> storm_check p (storm_pass ~seed ~domains:pool_domains p)
   with e ->
     p.ops <- max p.ops 1;
     fail p ~ops:p.ops "exception: %s" (Printexc.to_string e));
  p

let attempted = ref 0
let failed = ref 0
let errors = ref []
let extra_fail = ref false

let account p =
  attempted := !attempted + p.ops;
  (* several checks can fail the same ops *)
  failed := !failed + min p.ops p.failed;
  List.iter (fun e -> if List.length !errors < 16 then errors := e :: !errors) p.errors

(* Passes until [seconds] of wall time have gone by (at least two),
   each starting from a collected heap.  With [~calibrate] the Calib
   kernels run before the first pass and after every pass, and each
   pass is rescaled by the kernels on either side of it.  Each pass goes
   to [feed], and its op latencies are then dropped, so the memory a run
   holds does not grow with the number of passes that fit in it. *)
let phase ?(feed = ignore) ?(calibrate = false) ~seconds f =
  let t0 = now_ns () and acc = ref [] and n = ref 0 in
  let cal = ref 0 in
  if calibrate then begin
    Gc.full_major ();
    cal := Calib.measure ()
  end;
  while !n < 2 || float_of_int (now_ns () - t0) < seconds *. 1e9 do
    Gc.full_major ();
    let p = f () in
    if calibrate then begin
      Gc.full_major ();
      let next = Calib.measure () in
      p.cal_ns <- Calib.mean !cal next;
      cal := next
    end;
    account p;
    feed p;
    p.lat.data <- [||];
    p.lat.len <- 0;
    acc := p :: !acc;
    incr n
  done;
  List.rev !acc

type totals = {
  t_passes : int;
  t_ops : int;
  t_words_first : float; (* minor words of the first pass *)
  t_sim_ns : int;
  t_gc_minor : int;
  t_gc_major : int;
  t_counts : int array;
  t_setup : Spans.Vec.t; (* per-pass set-up wall ns, rescaled by Calib *)
  t_timed : Spans.Vec.t; (* per-pass timed-loop CPU ns *)
  t_wall : Spans.Vec.t; (* per-pass timed-loop wall ns, rescaled by Calib *)
  t_raw_wall : Spans.Vec.t; (* per-pass timed-loop wall ns *)
  t_cal : Spans.Vec.t; (* per-pass Calib kernels wall ns *)
}

let totals passes =
  let c = Array.make ncounts 0 and setup = Spans.Vec.create ()
  and timed = Spans.Vec.create () and wall = Spans.Vec.create ()
  and raw_wall = Spans.Vec.create () and cal = Spans.Vec.create () in
  let scaled p ns = int_of_float (Float.round (float_of_int ns *. Calib.scale p.cal_ns)) in
  let ops = ref 0 and sim = ref 0
  and gmin = ref 0 and gmaj = ref 0 in
  List.iter
    (fun p ->
      ops := !ops + p.ops;
      sim := !sim + p.sim_ns;
      gmin := !gmin + p.gc_minor;
      gmaj := !gmaj + p.gc_major;
      Array.iteri (fun i x -> c.(i) <- c.(i) + x) p.counts;
      Spans.Vec.push setup (scaled p p.setup_ns);
      Spans.Vec.push timed p.timed_ns;
      Spans.Vec.push wall (scaled p p.wall_ns);
      Spans.Vec.push raw_wall p.wall_ns;
      Spans.Vec.push cal p.cal_ns)
    passes;
  {
    t_passes = List.length passes;
    t_ops = !ops;
    t_words_first = (match passes with p :: _ -> p.words | [] -> 0.);
    t_sim_ns = !sim;
    t_gc_minor = !gmin;
    t_gc_major = !gmaj;
    t_counts = c;
    t_setup = setup;
    t_timed = timed;
    t_wall = wall;
    t_raw_wall = raw_wall;
    t_cal = cal;
  }

(* Every pass of a workload does the same ops. *)
let ops_per_pass t = float_of_int (t.t_ops / max 1 t.t_passes)
let per_op t x = float_of_int x /. float_of_int (max 1 t.t_ops)

(* Ops per second of wall-clock time in the median pass's timed loop,
   rescaled by Calib on calibrated passes: the throughput a user of the
   simulator sees, which on the pool includes the time fibres wait on
   locks and on each other.  The raw wall-clock figure and the CPU time
   of the process (every domain) are printed beside it. *)
let ops_per_s t = ops_per_pass t /. (Spans.Vec.median t.t_wall /. 1e9)
let raw_ops_per_s t = ops_per_pass t /. (Spans.Vec.median t.t_raw_wall /. 1e9)
let cpu_ops_per_s t = ops_per_pass t /. (Spans.Vec.median t.t_timed /. 1e9)

(* Nearest-rank percentile of the op latencies. *)
let percentile (v : Spans.Vec.t) pct =
  if v.len = 0 then 0.
  else begin
    let s = Array.sub v.data 0 v.len in
    Array.sort compare s;
    let k = int_of_float (Float.ceil (pct /. 100. *. float_of_int v.len)) - 1 in
    float_of_int s.(max 0 (min (v.len - 1) k))
  end

(* Streams op latencies into chunks of at least [chunk_ops] and keeps
   only each chunk's percentiles.  The newest full chunk is held back,
   so that a short remainder can join it at the end.  Also keeps the
   reservoir of passes for the position tail. *)
type chunker = {
  mutable held : Spans.Vec.t option;
  mutable cur : Spans.Vec.t;
  p50s : Spans.Vec.t;
  tails : Spans.Vec.t;
  mutable beyond : int; (* fewest samples beyond the tail in a chunk *)
  rng : Random.State.t;
  kept : int array array; (* rescaled op latencies of the kept passes *)
  mutable seen : int; (* passes offered to the reservoir *)
}

let chunker ~seed =
  {
    held = None;
    cur = Spans.Vec.create ();
    p50s = Spans.Vec.create ();
    tails = Spans.Vec.create ();
    beyond = max_int;
    rng = Random.State.make [| seed |];
    kept = Array.make kept_passes [||];
    seen = 0;
  }

(* Reservoir sampling: after [seen] passes each is kept with the same
   chance. *)
let keep ch a =
  let j = if ch.seen < kept_passes then ch.seen else Random.State.int ch.rng (ch.seen + 1) in
  if j < kept_passes then ch.kept.(j) <- a;
  ch.seen <- ch.seen + 1

(* The p99 over op positions of each position's median latency over the
   kept passes, and the number of positions beyond it. *)
let position_tail ch =
  let k = min ch.seen kept_passes in
  if k = 0 then (0., 0)
  else begin
    let n = Array.length ch.kept.(0) in
    let meds = Spans.Vec.create () and col = Spans.Vec.create () in
    for i = 0 to n - 1 do
      col.len <- 0;
      for s = 0 to k - 1 do
        Spans.Vec.push col ch.kept.(s).(i)
      done;
      Spans.Vec.push meds (int_of_float (Spans.Vec.median col))
    done;
    ( percentile meds tail_pct,
      n - int_of_float (Float.ceil (tail_pct /. 100. *. float_of_int n)) )
  end

let central_mean (v : Spans.Vec.t) =
  let s = Array.sub v.data 0 v.len in
  Array.sort compare s;
  let lo = v.len * 45 / 100 in
  let hi = max (lo + 1) (((v.len * 55) + 99) / 100) in
  let sum = ref 0 in
  for i = lo to hi - 1 do
    sum := !sum + s.(i)
  done;
  float_of_int !sum /. float_of_int (hi - lo)

let summarise ch (c : Spans.Vec.t) =
  Spans.Vec.push ch.p50s (int_of_float (Float.round (central_mean c)));
  Spans.Vec.push ch.tails (int_of_float (percentile c tail_pct));
  ch.beyond <-
    min ch.beyond
      (c.len - int_of_float (Float.ceil (tail_pct /. 100. *. float_of_int c.len)))

let feed ch p =
  let v = p.lat and k = Calib.scale p.cal_ns in
  let a = Array.init v.len (fun i -> int_of_float (Float.round (float_of_int v.data.(i) *. k))) in
  Array.iter (Spans.Vec.push ch.cur) a;
  keep ch a;
  if ch.cur.len >= chunk_ops then begin
    Option.iter (summarise ch) ch.held;
    ch.held <- Some ch.cur;
    ch.cur <- Spans.Vec.create ()
  end

let finish ch =
  match ch.held with
  | Some h ->
    for i = 0 to ch.cur.len - 1 do
      Spans.Vec.push h ch.cur.data.(i)
    done;
    summarise ch h
  | None -> if ch.cur.len > 0 then summarise ch ch.cur

let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.
  | ic ->
    let rec go () =
      match input_line ic with
      | exception End_of_file -> 0.
      | l ->
        if String.length l > 6 && String.sub l 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
              float_of_int kb /. 1024.)
        else go ()
    in
    let r = go () in
    close_in ic;
    r

(* --- checks outside the timed region ------------------------------- *)

(* The simulated outcome must not depend on the seed: the counts that
   are functions of the simulated work must agree between two seeds.
   (Lock and pool counters measure real contention and are excluded.) *)
let simulated_counts p =
  ( p.sim_ns,
    Array.to_list
      (Array.sub p.counts 0 (c_moved_pages + 1)
      |> Array.mapi (fun i x ->
             if i = c_gmap_lock_waits || i = c_mm_contended || i = c_mm_wait_ns
             then 0
             else x)) )

let checks wl ~seed =
  let cal = Hw.Cost.chorus_sun360 in
  let a = run_pass wl ~seed ~cost:cal ~check:true in
  account a;
  let seed2 = seed + 1_000_003 in
  let b = run_pass wl ~seed:seed2 ~cost:cal ~check:true in
  account b;
  if simulated_counts a <> simulated_counts b then begin
    extra_fail := true;
    errors :=
      Printf.sprintf "simulated counts differ between seeds %d and %d" seed seed2
      :: !errors
  end;
  (* the storm is Check.Crossval's scenario: its own run must give the
     reference digest too *)
  (match wl with
  | Storm | Storm_pool ->
    let d =
      Check.Crossval.run_on
        (Check.Crossval.storm ~workers:storm_workers ~pages:storm_pages
           ~rounds:storm_rounds ())
    in
    attempted := !attempted + storm_ops;
    if d <> Reference.perturb Reference.storm_digest then begin
      failed := !failed + storm_ops;
      errors := Printf.sprintf "Check.Crossval.storm digest %s" d :: !errors
    end
  | Tables | Make -> ());
  (* the accuracy metric comes from the calibrated Table 6/7 cells *)
  (match wl with
  | Tables -> ()
  | _ -> account (run_pass Tables ~seed ~cost:cal ~check:true));
  paper_err_pct ()

(* --- metrics ------------------------------------------------------- *)

let metrics = ref []
let metric name unit ~clock v = metrics := (name, unit, clock, v) :: !metrics

let span_names =
  [ "hw.engine.run_fn"; "core.pvm_create"; "core.region_create";
    "core.region_destroy"; "core.cache_create"; "core.cache_copy";
    "core.cache_destroy"; "core.touch"; "core.pvm_write"; "core.pvm_read" ]
  @ Array.to_list (Array.map (fun k -> "core." ^ k) Spans.kinds)
  @ [ "nucleus.site_create"; "mix.spawn_init"; "mix.fork"; "mix.exec";
      "mix.read"; "mix.write"; "mix.sbrk"; "mix.pipe_write"; "mix.pipe_read";
      "mix.exit"; "mix.wait" ]

let span_id name =
  let r = ref (-1) in
  Array.iteri (fun i n -> if n = name then r := i) !Spans.names;
  !r

let end_to_end wl ~seconds ~err =
  (* One untimed pass first: the checks before it leave the caches and
     the heap to another workload's passes on make and the storms. *)
  account (run_pass wl ~seed:!Args.seed ~cost:Hw.Cost.chorus_sun360 ~check:true);
  let ch = chunker ~seed:!Args.seed in
  let passes =
    phase ~feed:(feed ch) ~calibrate:true ~seconds (fun () ->
        run_pass wl ~seed:!Args.seed ~cost:Hw.Cost.chorus_sun360 ~check:true)
  in
  finish ch;
  let t = totals passes in
  let tail, beyond = position_tail ch in
  Printf.printf
    "# %d passes, %d ops in %d chunks of >= %d ops; op_p50_us is the median over the \
     chunks of each chunk's mean from p45 to p55\n"
    (List.length passes) t.t_ops ch.p50s.len chunk_ops;
  Printf.printf
    "# op_tail_us is the p%g over %d op positions (%d beyond it) of each position's \
     median over %d kept passes; the median over the chunks of each chunk's p%g \
     (>= %d samples beyond it) is %.3f us\n"
    tail_pct (Array.length ch.kept.(0)) beyond (min ch.seen kept_passes) tail_pct
    ch.beyond (Spans.Vec.median ch.tails /. 1e3);
  Printf.printf
    "# Calib kernels wall ms per pass: min %.3f median %.3f max %.3f (reference %.3f); \
     host times below and in the metrics are rescaled by reference/kernel pass by pass\n"
    (percentile t.t_cal 0. /. 1e6) (Spans.Vec.median t.t_cal /. 1e6)
    (percentile t.t_cal 100. /. 1e6) (Calib.ref_ns /. 1e6);
  Printf.printf "# timed-loop raw wall ms per pass: min %.3f median %.3f max %.3f, %.0f op/s of raw wall time\n"
    (percentile t.t_raw_wall 0. /. 1e6) (Spans.Vec.median t.t_raw_wall /. 1e6)
    (percentile t.t_raw_wall 100. /. 1e6) (raw_ops_per_s t);
  Printf.printf "# timed-loop rescaled wall ms per pass: min %.3f median %.3f max %.3f\n"
    (percentile t.t_wall 0. /. 1e6) (Spans.Vec.median t.t_wall /. 1e6)
    (percentile t.t_wall 100. /. 1e6);
  Printf.printf "# timed-loop CPU ms per pass (every domain): min %.3f median %.3f max %.3f, %.0f op/s of CPU time\n"
    (percentile t.t_timed 0. /. 1e6) (Spans.Vec.median t.t_timed /. 1e6)
    (percentile t.t_timed 100. /. 1e6) (cpu_ops_per_s t);
  Printf.printf "# rescaled setup wall ms per pass: min %.3f median %.3f max %.3f\n"
    (percentile t.t_setup 0. /. 1e6) (Spans.Vec.median t.t_setup /. 1e6)
    (percentile t.t_setup 100. /. 1e6);
  metric "setup_s" "s" ~clock:"host" (Spans.Vec.median t.t_setup /. 1e9);
  metric "ops_per_s" "op/s" ~clock:"host" (ops_per_s t);
  metric "op_p50_us" "us" ~clock:"host" (Spans.Vec.median ch.p50s /. 1e3);
  metric "op_tail_us" "us" ~clock:"host" (tail /. 1e3);
  (* From the first timed pass: every run makes the same passes before
     it, so the count is exact.  Later passes of [make] can differ by a
     word or two, because Seg.Capability keys come from a process-wide
     generator and the segment names printed from them vary in length. *)
  metric "words_per_op" "words" ~clock:"host" (t.t_words_first /. ops_per_pass t);
  metric "peak_rss_mb" "MB" ~clock:"host" (peak_rss_mb ());
  metric "sim_ms_per_op" "sim_ms" ~clock:"sim" (per_op t t.t_sim_ns /. 1e6);
  metric "paper_err_pct" "%" ~clock:"sim" err

let per_layer wl ~seconds =
  let cal = Hw.Cost.chorus_sun360 in
  let share = if wl = Tables then seconds /. 3. else seconds /. 2. in
  let seed = !Args.seed in
  (* On tables the untraced passes alternate with the identical loops
     under Cost.free, which perform no charge: the gap in timed host ns
     per charge is the engine's cost of a charge. *)
  let plain_passes = ref [] in
  let free =
    phase ~seconds:(if wl = Tables then 2. *. share else share) (fun () ->
        let p = run_pass wl ~seed ~cost:cal ~check:true in
        plain_passes := p :: !plain_passes;
        if wl = Tables then begin
          account p;
          run_pass wl ~seed ~cost:Hw.Cost.free ~check:false
        end
        else p)
  in
  let plain = totals !plain_passes in
  let charge_ns =
    if wl <> Tables then 0.
    else begin
      let free = totals free in
      let per_pass_charges = float_of_int plain.t_counts.(c_charges) /. float_of_int plain.t_timed.len in
      let ns = (Spans.Vec.median plain.t_timed -. Spans.Vec.median free.t_timed) /. per_pass_charges in
      Printf.printf
        "# charge_ns sanity: %.0f ns/charge x %.2f charges/op = %.2f us/op of charge cost; \
         the ROADMAP's zero-fill fault gap was 1.4-3.0 us (5.3-6.5 vs 3.5-3.9 us)\n"
        ns (per_op plain plain.t_counts.(c_charges))
        (ns *. per_op plain plain.t_counts.(c_charges) /. 1e3);
      ns
    end
  in
  Spans.on := true;
  Obs.Lockstat.enable_timing ~clock:now_ns;
  let coverage_ns = ref 0 and op_ns = ref 0 and low_ops = ref 0 in
  let traced =
    phase ~seconds:share (fun () ->
        let p = run_pass wl ~seed ~cost:cal ~check:true in
        Spans.set_ops p.ops;
        Spans.end_pass ();
        if wl = Tables || wl = Make then
          for op = 0 to p.lat.len - 1 do
            let c = !Spans.op_cover.(op) and l = p.lat.data.(op) in
            coverage_ns := !coverage_ns + c;
            op_ns := !op_ns + l;
            if 10 * c < 9 * l then incr low_ops
          done;
        p)
  in
  Obs.Lockstat.disable_timing ();
  Spans.on := false;
  let t = totals traced in
  if wl = Tables || wl = Make then begin
    let share = float_of_int !coverage_ns /. float_of_int (max 1 !op_ns) in
    Printf.printf
      "# span coverage: top-level spans cover %.1f%% of op host time; %d of %d ops below 90%%\n"
      (100. *. share) !low_ops t.t_ops;
    (* An op of a few microseconds falls below 90% on its own when a
       host interrupt lands between its spans: 0.3-1% of the tables ops
       on a quiet 2-vCPU VM, more while the host is busy.  A span
       missing from the instrumentation moves a whole class of ops
       instead, and the Table 7 copy faults alone are a third of them. *)
    if share < 0.9 || 20 * !low_ops > t.t_ops then begin
      extra_fail := true;
      errors := "top-level spans cover less than 90% of op host time" :: !errors
    end
  end;
  List.iter
    (fun n ->
      let id = span_id n in
      metric (n ^ ".ns") "ns" ~clock:"host" (Spans.Vec.median Spans.self_ns.(id));
      metric (n ^ ".words") "words" ~clock:"host" (Spans.Vec.median Spans.self_words.(id)))
    span_names;
  let c = t.t_counts in
  let count name i = metric name "count" ~clock:"sim" (per_op t c.(i)) in
  count "hw.engine.charges_per_op" c_charges;
  metric "hw.engine.charge_ns" "ns" ~clock:"host" charge_ns;
  metric "hw.engine.pool_lock.acq_per_op" "count" ~clock:"host" (per_op t c.(c_pool_acq));
  metric "hw.engine.pool_lock.contended_per_op" "count" ~clock:"host" (per_op t c.(c_pool_contended));
  metric "hw.engine.pool_lock.wait_ns_per_op" "ns" ~clock:"host" (per_op t c.(c_pool_wait_ns));
  metric "hw.engine.cpu_util_pct" "%" ~clock:"sim"
    (if c.(c_cpu_capacity_ns) = 0 then 0.
     else 100. *. float_of_int c.(c_cpu_busy_ns) /. float_of_int c.(c_cpu_capacity_ns));
  Array.iteri (fun k n -> count (Printf.sprintf "core.%s.per_op" n) (c_kind k)) Spans.kinds;
  count "core.gmap.probes_per_op" c_gmap_probes;
  metric "core.gmap.lock_waits_per_op" "count" ~clock:"host" (per_op t c.(c_gmap_lock_waits));
  metric "core.mm_lock.contended_per_op" "count" ~clock:"host" (per_op t c.(c_mm_contended));
  metric "core.mm_lock.wait_ns_per_op" "ns" ~clock:"host" (per_op t c.(c_mm_wait_ns));
  count "core.history.created_per_op" c_history_created;
  count "core.history.tree_lookups_per_op" c_tree_lookups;
  count "core.pervpage.stub_resolves_per_op" c_stub_resolves;
  count "core.pager.evictions_per_op" c_evictions;
  count "core.pager.push_outs_per_op" c_push_outs;
  count "core.pager.pull_ins_per_op" c_pull_ins;
  count "core.cow_copies_per_op" c_cow_copies;
  count "core.moved_pages_per_op" c_moved_pages;
  let kop x = 1000. *. float_of_int x /. float_of_int (max 1 plain.t_ops) in
  metric "gc.minor_collections_per_kop" "count" ~clock:"host" (kop plain.t_gc_minor);
  metric "gc.major_collections_per_kop" "count" ~clock:"host" (kop plain.t_gc_major);
  metric "bench.trace_overhead_pct" "%" ~clock:"host"
    (100. *. ((ops_per_s plain /. ops_per_s t) -. 1.));
  let absent =
    List.filter_map
      (fun (n, _, _, v) -> if v = 0. && n <> "bench.trace_overhead_pct" then Some n else None)
      (List.rev !metrics)
  in
  Printf.printf "# absent on %s (the path does not run, or is not attributable, here): %s\n"
    (workload_name wl) (String.concat " " absent)

(* --- output -------------------------------------------------------- *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let () =
  Args.parse ();
  let wl =
    match workload_of_string !Args.workload with
    | Some w -> w
    | None -> Args.usage ()
  in
  Reference.perturbed := !Args.perturb;
  Printf.printf "# workload %s, seed %d, %g s, trace %d\n" (workload_name wl) !Args.seed
    !Args.seconds (if !Args.trace then 1 else 0);
  Printf.printf "# host: nproc=%d ocaml=%s worker_domains=%d (0: sequential engine)\n"
    nproc Sys.ocaml_version (domains_of wl);
  let err = checks wl ~seed:!Args.seed in
  if !Args.trace then per_layer wl ~seconds:!Args.seconds
  else end_to_end wl ~seconds:!Args.seconds ~err;
  let ms = List.rev !metrics in
  List.iter
    (fun (n, u, clock, v) -> Printf.printf "%-44s %16s %-6s (%s)\n" n (json_number v) u clock)
    ms;
  if !Args.trace then begin
    let path = Filename.concat ".perfbench-out" ("spans-" ^ workload_name wl ^ ".json") in
    (try Sys.mkdir (Filename.dirname path) 0o755 with Sys_error _ -> ());
    Spans.write_json path
      ~meta:
        (Printf.sprintf
           "\"workload\":%S,\"seed\":%d,\"nproc\":%d,\"ocaml\":%S,\"worker_domains\":%d,\"clock\":\"host ns\""
           (workload_name wl) !Args.seed nproc Sys.ocaml_version (domains_of wl));
    Printf.printf "# spans of the first traced pass written to %s\n" path
  end;
  List.iter (fun e -> Printf.printf "# FAILED: %s\n" e) (List.rev !errors);
  let correct = !failed = 0 && not !extra_fail in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct (max 1 !attempted) !failed
    (String.concat ", "
       (List.map
          (fun (n, u, _, v) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_number v) u)
          ms))
