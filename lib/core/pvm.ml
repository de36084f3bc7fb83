open Types

type t = Types.pvm
type context = Types.context
type region = Types.region
type cache = Types.cache

let create ?(page_size = 8192) ?(cost = Hw.Cost.chorus_sun360) ?(shards = 8)
    ~frames ~engine () =
  let mem = Hw.Phys_mem.create ~page_size ~frames () in
  let obs = Obs.Metrics.create ~prims:Hw.Cost.prim_names () in
  {
    mem;
    mmu = Hw.Mmu.create ~page_size;
    cost;
    engine;
    gmap = Shard_map.create ~name:"gmap" ~shards ();
    stub_sources = Shard_map.create ~name:"stub_sources" ~shards ();
    page_of_frame = Array.make frames None;
    contexts = [];
    caches = [];
    current = None;
    next_id = Atomic.make 1;
    reclaim = Fifo.create ();
    mm_lock = Mutex.create ();
    mm_owner = Atomic.make (-1);
    mm_depth = 0;
    mm_stat = Obs.Lockstat.create ~cls:"mm" "pvm/mm";
    stub_sleeps = Atomic.make 0;
    segment_create_hook = None;
    zombie_reaper = None;
    stats = fresh_stats ();
    obs;
    fault_hist = Array.map (Obs.Metrics.histogram obs) Fault.hist_names;
  }
  |> Cache.install_reaper

let engine pvm = pvm.engine
let memory pvm = pvm.mem
let cost pvm = pvm.cost
let page_size = Types.page_size
let stats pvm = snapshot_stats pvm.stats
let tracer pvm = Hw.Engine.tracer pvm.engine
let[@chorus.spanned
     "re-export of the charge primitive for upper layers; L3's subjects are \
      its callers"] charge_prim = Types.charge

(* Publish the legacy stats counters into the registry before handing
   it out, so one report carries everything: the registry subsumes
   [Types.stats] rather than replacing it. *)
let[@chorus.noted
     "read-only reporting snapshot taken between runs, not from engine-task \
      code: the counters it copies are never part of a slice footprint"]
    metrics pvm =
  let s = snapshot_stats pvm.stats and m = pvm.obs in
  let set name v = Obs.Metrics.set (Obs.Metrics.counter m name) v in
  set "pvm.faults" s.n_faults;
  set "pvm.zero_fills" s.n_zero_fills;
  set "pvm.cow_copies" s.n_cow_copies;
  set "pvm.pull_ins" s.n_pull_ins;
  set "pvm.push_outs" s.n_push_outs;
  set "pvm.evictions" s.n_evictions;
  set "pvm.tree_lookups" s.n_tree_lookups;
  set "pvm.history_created" s.n_history_created;
  set "pvm.stub_resolves" s.n_stub_resolves;
  set "pvm.eager_pages" s.n_eager_pages;
  set "pvm.moved_pages" s.n_moved_pages;
  (* Sharded-map health: total point probes, how many had to wait for
     a shard lock (only ever non-zero on the parallel engine), how
     many fibres parked on sync stubs, and the per-shard occupancy
     spread as a histogram (one observation per shard). *)
  set "gmap.shards" (Shard_map.shard_count pvm.gmap);
  set "gmap.probes" (Shard_map.probes pvm.gmap);
  set "gmap.lock_waits" (Shard_map.lock_waits pvm.gmap);
  set "gmap.stub_sources.probes" (Shard_map.probes pvm.stub_sources);
  set "gmap.stub_sleeps" (Atomic.get pvm.stub_sleeps);
  (* Per-shard attribution: the summed probes above hide hot-shard
     skew, so each shard also publishes its own probe and lock-wait
     counts. *)
  Array.iteri
    (fun i n -> set (Printf.sprintf "gmap.shard%d.probes" i) n)
    (Shard_map.probes_per_shard pvm.gmap);
  Array.iteri
    (fun i n -> set (Printf.sprintf "gmap.shard%d.lock_waits" i) n)
    (Shard_map.lock_waits_per_shard pvm.gmap);
  (* Per-simulated-CPU utilization (parallel engine only): busy is the
     charge time placed on that CPU, idle is its slack against the
     makespan reached so far. *)
  let busy = Hw.Engine.cpu_busy pvm.engine in
  if Array.length busy > 0 then begin
    let makespan = Hw.Engine.now pvm.engine in
    Array.iteri
      (fun i b ->
        set (Printf.sprintf "engine.cpu%d.busy_ns" i) b;
        set (Printf.sprintf "engine.cpu%d.idle_ns" i) (max 0 (makespan - b)))
      busy
  end;
  let occ = Obs.Metrics.histogram m "gmap.shard_occupancy" in
  (* a fresh snapshot, not a stream: [metrics] may be called several
     times per report and must stay idempotent *)
  Obs.Metrics.clear_histogram occ;
  Array.iter (fun n -> Obs.Metrics.observe occ n) (Shard_map.occupancy pvm.gmap);
  m

let reset_stats pvm = Types.reset_stats pvm.stats

(* Every instrumented lock owned by this PVM, for the contention
   report: the mm lock and each shard lock of the two sharded maps.
   The engine pool lock is the engine's
   ({!Hw.Engine.pool_lock_stats}), so several PVMs sharing one engine
   don't each re-report it. *)
let[@chorus.noted
     "quiescence-time reporting: reads only the lock statistics, never \
      map contents, so no schedule can depend on it"] lock_stats pvm =
  Obs.Lockstat.snapshot pvm.mm_stat
  :: (Shard_map.lock_stats pvm.gmap @ Shard_map.lock_stats pvm.stub_sources)

let set_segment_create_hook pvm hook = pvm.segment_create_hook <- Some hook

(* Simulated program access: hardware translation with the fault
   handler in the loop.  The retry bound turns a resolution bug into a
   failure rather than a hang. *)
let access_frame pvm (ctx : context) ~addr ~access =
  (* MMU hits never probe the global map, so the schedule explorer
     would not see this access; note the touched fragment here so
     conflicting program reads/writes never classify as independent. *)
  if Hw.Engine.tracking pvm.engine then begin
    note_structure ~write:false pvm;
    List.iter
      (fun (r : region) ->
        if r.r_alive && addr >= r.r_addr && addr < r.r_addr + r.r_size then
          note_frag ~write:(access = `Write) pvm r.r_cache
            ~off:(page_align_down pvm (r.r_offset + (addr - r.r_addr))))
      ctx.ctx_regions
  end;
  let rec go retries =
    if retries > 32 then
      failwith "PVM: page fault resolution did not converge";
    match Hw.Mmu.translate ctx.ctx_space ~addr ~access with
    | Ok frame -> frame
    | Error _ ->
      Fault.handle pvm ctx ~addr ~access;
      go (retries + 1)
  in
  go 0

let touch pvm ctx ~addr ~access = ignore (access_frame pvm ctx ~addr ~access)

let read pvm ctx ~addr ~len =
  let ps = Types.page_size pvm in
  let out = Bytes.create len in
  let rec go done_ =
    if done_ < len then begin
      let a = addr + done_ in
      let in_page = a mod ps in
      let chunk = min (len - done_) (ps - in_page) in
      let frame = access_frame pvm ctx ~addr:a ~access:`Read in
      Bytes.blit frame.Hw.Phys_mem.bytes in_page out done_ chunk;
      go (done_ + chunk)
    end
  in
  go 0;
  out

let write pvm ctx ~addr bytes =
  let ps = Types.page_size pvm in
  let len = Bytes.length bytes in
  let rec go done_ =
    if done_ < len then begin
      let a = addr + done_ in
      let in_page = a mod ps in
      let chunk = min (len - done_) (ps - in_page) in
      let frame = access_frame pvm ctx ~addr:a ~access:`Write in
      Bytes.blit bytes done_ frame.Hw.Phys_mem.bytes in_page chunk;
      go (done_ + chunk)
    end
  in
  go 0

let pp_history_tree = History.pp_tree

let start_pageout_daemon ?(period = Hw.Sim_time.ms 20) pvm ~low_water
    ~high_water =
  Pager.start_daemon pvm ~low_water ~high_water ~period
