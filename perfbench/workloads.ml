(* The four workloads.  Each runs in passes: a pass builds its initial
   state (timed as set-up), runs a fixed amount of work (the timed
   loop, made of ops), and checks the simulated outcome against
   Reference.  Every pass of a workload does identical simulated work,
   so the exact metrics (simulated time, counts, minor words on the
   sequential engine) are the same whatever number of passes fits in
   the run. *)

let ps = 8192
let now_ns = Spans.now_ns
let cpu_ns = Spans.cpu_ns

(* --- per-layer counters read from the layers' public state --------- *)

let c_charges = 0
let c_kind k = 1 + k (* fault completions by resolution kind *)
let c_gmap_probes = 8
let c_gmap_lock_waits = 9
let c_mm_contended = 10
let c_mm_wait_ns = 11
let c_history_created = 12
let c_tree_lookups = 13
let c_stub_resolves = 14
let c_evictions = 15
let c_push_outs = 16
let c_pull_ins = 17
let c_cow_copies = 18
let c_moved_pages = 19
let c_pool_acq = 20
let c_pool_contended = 21
let c_pool_wait_ns = 22
let c_cpu_busy_ns = 23
let c_cpu_capacity_ns = 24
let ncounts = 25

let pvm_counts pvm =
  let c = Array.make ncounts 0 in
  let m = Core.Pvm.metrics pvm in
  c.(c_charges) <-
    List.fold_left (fun acc (_, n, _) -> acc + n) 0 (Obs.Metrics.prim_report m);
  Array.iteri
    (fun k h -> c.(c_kind k) <- (Obs.Metrics.histogram_stats h).count)
    pvm.Core.Types.fault_hist;
  let counter n = Obs.Metrics.value (Obs.Metrics.counter m n) in
  c.(c_gmap_probes) <- counter "gmap.probes";
  c.(c_gmap_lock_waits) <- counter "gmap.lock_waits";
  List.iter
    (fun (s : Obs.Lockstat.snapshot) ->
      if s.name = "pvm/mm" then begin
        c.(c_mm_contended) <- s.waits;
        c.(c_mm_wait_ns) <- s.wait_ns
      end)
    (Core.Pvm.lock_stats pvm);
  let s = Core.Pvm.stats pvm in
  c.(c_history_created) <- s.n_history_created;
  c.(c_tree_lookups) <- s.n_tree_lookups;
  c.(c_stub_resolves) <- s.n_stub_resolves;
  c.(c_evictions) <- s.n_evictions;
  c.(c_push_outs) <- s.n_push_outs;
  c.(c_pull_ins) <- s.n_pull_ins;
  c.(c_cow_copies) <- s.n_cow_copies;
  c.(c_moved_pages) <- s.n_moved_pages;
  c

let engine_counts eng c =
  List.iter
    (fun (s : Obs.Lockstat.snapshot) ->
      c.(c_pool_acq) <- c.(c_pool_acq) + s.acquires;
      c.(c_pool_contended) <- c.(c_pool_contended) + s.waits;
      c.(c_pool_wait_ns) <- c.(c_pool_wait_ns) + s.wait_ns)
    (Hw.Engine.pool_lock_stats eng);
  let busy = Hw.Engine.cpu_busy eng in
  c.(c_cpu_busy_ns) <- c.(c_cpu_busy_ns) + Array.fold_left ( + ) 0 busy;
  c.(c_cpu_capacity_ns) <-
    c.(c_cpu_capacity_ns) + (Array.length busy * Hw.Engine.now eng)

(* --- one pass ------------------------------------------------------ *)

type pass = {
  mutable ops : int;
  mutable setup_ns : int; (* wall-clock ns *)
  mutable timed_ns : int; (* process CPU ns of the timed loop *)
  mutable wall_ns : int; (* wall-clock ns of the timed loop *)
  mutable cal_ns : int; (* wall-clock ns of the Calib kernels before the pass, 0 if none *)
  mutable words : float; (* minor words over the timed loop *)
  mutable sim_ns : int; (* simulated ns over the timed loop *)
  mutable gc_minor : int;
  mutable gc_major : int;
  mutable failed : int;
  mutable errors : string list;
  counts : int array; (* deltas over the timed loop *)
  lat : Spans.Vec.t; (* host ns of each op, indexed by op id *)
}

let new_pass () =
  {
    ops = 0;
    setup_ns = 0;
    timed_ns = 0;
    wall_ns = 0;
    cal_ns = 0;
    words = 0.;
    sim_ns = 0;
    gc_minor = 0;
    gc_major = 0;
    failed = 0;
    errors = [];
    counts = Array.make ncounts 0;
    lat = Spans.Vec.create ();
  }

let fail p ~ops fmt =
  Printf.ksprintf
    (fun s ->
      p.failed <- p.failed + ops;
      if List.length p.errors < 8 then p.errors <- s :: p.errors)
    fmt

(* The timed-loop window, opened and closed around the loop (inside the
   engine or around it): host CPU and wall ns, minor words
   ([all_domains]: summed over every domain, from the runtime's
   aggregate statistics), GC counts and per-layer count deltas against
   [pvm]. *)
type window = {
  w_ns : int;
  w_wall : int;
  w_words : float;
  w_minor : int;
  w_major : int;
  w_counts : int array;
}

let words ~all_domains =
  if all_domains then (Gc.quick_stat ()).minor_words else Gc.minor_words ()

let glue f = if !Spans.on then Spans.call Spans.glue_id (-1) f else f ()

let open_window ~all_domains pvm =
  let counts = glue (fun () -> pvm_counts pvm) in
  let st = Gc.quick_stat () in
  let w = words ~all_domains in
  {
    w_counts = counts;
    w_minor = st.minor_collections;
    w_major = st.major_collections;
    w_words = w;
    w_wall = now_ns ();
    w_ns = cpu_ns ();
  }

let close_window ~all_domains p pvm w =
  let t = cpu_ns () in
  let wall = now_ns () in
  let wd = words ~all_domains in
  let st = Gc.quick_stat () in
  p.timed_ns <- p.timed_ns + (t - w.w_ns);
  p.wall_ns <- p.wall_ns + (wall - w.w_wall);
  p.words <- p.words +. (wd -. w.w_words);
  p.gc_minor <- p.gc_minor + (st.minor_collections - w.w_minor);
  p.gc_major <- p.gc_major + (st.major_collections - w.w_major);
  let c = glue (fun () -> pvm_counts pvm) in
  for i = 0 to c_moved_pages do
    p.counts.(i) <- p.counts.(i) + (c.(i) - w.w_counts.(i))
  done

let sanitize p ~ops label pvm =
  match Check.Sanitizer.run ~strict:true pvm with
  | [] -> ()
  | v :: _ as vs ->
    fail p ~ops "%s: sanitizer found %d violation(s), first %s: %s" label
      (List.length vs) v.Check.Sanitizer.rule v.detail

(* --- tables: the paper's Table 6/7 Chorus loops -------------------- *)

let region_sizes = [| 8 * 1024; 256 * 1024; 1024 * 1024 |]
let col_pages = [| 0; 1; 32; 128 |]
let iterations = 10

(* (table, size index, page-count index) for the 18 valid cells, in
   Reference order. *)
let cells =
  List.concat_map
    (fun t ->
      List.concat_map
        (fun ri ->
          List.filter_map
            (fun ci ->
              if col_pages.(ci) * ps > region_sizes.(ri) then None
              else Some (t, ri, ci))
            [ 0; 1; 2; 3 ])
        [ 0; 1; 2 ])
    [ 6; 7 ]

(* The seed orders the cells: a Fisher-Yates shuffle. *)
let cell_order seed =
  let a = Array.of_list (List.mapi (fun i c -> (i, c)) cells) in
  let rng = Random.State.make [| seed |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* Simulated ns of each cell, indexed like [cells]; filled by every
   tables pass. *)
let cell_ns = Array.make (List.length cells) 0

let tables_cell ~seed ~cost p (t, ri, ci) =
  let size = region_sizes.(ri) and pages = col_pages.(ci) in
  let engine = Hw.Engine.create ~tie_break:(Hw.Engine.Seeded seed) () in
  let first_op = p.ops in
  let result, pvm =
    Calls.run_fn engine (fun () ->
        let t0 = now_ns () in
        let pvm = Calls.pvm_create ~cost ~frames:600 engine in
        let ctx = Core.Context.create pvm in
        p.setup_ns <- p.setup_ns + (now_ns () - t0);
        let win = open_window ~all_domains:false pvm in
        let sim0 = Hw.Engine.now engine in
        let touch addr =
          let op = p.ops in
          let t = Spans.op_clock () in
          Calls.touch ~op pvm ctx ~addr;
          Spans.Vec.push p.lat (Spans.op_clock () - t);
          p.ops <- op + 1
        in
        let total = ref 0 in
        let rw = Hw.Prot.read_write in
        if t = 6 then
          for _ = 1 to iterations do
            let s0 = Hw.Engine.now engine in
            let cache = Calls.cache_create ~op:(-1) pvm in
            let r = Calls.region_create ~op:(-1) pvm ctx ~addr:0 ~size ~prot:rw cache in
            for q = 0 to pages - 1 do
              touch (q * ps)
            done;
            Calls.region_destroy ~op:(-1) pvm r;
            Calls.cache_destroy ~op:(-1) pvm cache;
            total := !total + (Hw.Engine.now engine - s0)
          done
        else begin
          let src = Calls.cache_create ~op:(-1) pvm in
          let _ = Calls.region_create ~op:(-1) pvm ctx ~addr:0 ~size ~prot:rw src in
          (* the source is entirely allocated before the measured loop *)
          for q = 0 to (size / ps) - 1 do
            touch (q * ps)
          done;
          let copy_base = 0x4000_0000 in
          for _ = 1 to iterations do
            let s0 = Hw.Engine.now engine in
            let copy = Calls.cache_create ~op:(-1) pvm in
            Calls.cache_copy ~op:(-1) pvm ~src ~dst:copy ~size;
            let r =
              Calls.region_create ~op:(-1) pvm ctx ~addr:copy_base ~size ~prot:rw copy
            in
            (* writes to the source force real copies *)
            for q = 0 to pages - 1 do
              touch (q * ps)
            done;
            Calls.region_destroy ~op:(-1) pvm r;
            Calls.cache_destroy ~op:(-1) pvm copy;
            total := !total + (Hw.Engine.now engine - s0)
          done
        end;
        p.sim_ns <- p.sim_ns + (Hw.Engine.now engine - sim0);
        close_window ~all_domains:false p pvm win;
        (!total / iterations, pvm))
  in
  sanitize p ~ops:(p.ops - first_op) (Printf.sprintf "table%d cell" t) pvm;
  result

let tables_pass ~seed ~cost ~check p =
  Array.iter
    (fun (i, ((t, ri, ci) as cell)) ->
      (* each cell starts from a collected heap, as each pass does *)
      Gc.full_major ();
      let first_op = p.ops in
      let ns = tables_cell ~seed ~cost p cell in
      cell_ns.(i) <- ns;
      if check && ns <> Reference.cell i then
        fail p ~ops:(p.ops - first_op)
          "table%d %d KB / %d pages: simulated %d ns, reference %d ns" t
          (region_sizes.(ri) / 1024) col_pages.(ci) ns (Reference.cell i))
    (cell_order seed)

(* Mean absolute relative error of the simulated Chorus cells against
   the paper's Table 6/7 values, in percent. *)
let paper_err_pct () =
  let n = Array.length cell_ns in
  let sum = ref 0. in
  Array.iteri
    (fun i ns ->
      let paper = Reference.paper_ms.(i) in
      sum := !sum +. (Float.abs ((float_of_int ns /. 1e6) -. paper) /. paper))
    cell_ns;
  100. *. !sum /. float_of_int n

(* --- make: the Chorus/MIX make -j2 loop ---------------------------- *)

let make_frames = 64
let make_compiles = 32
let jobs = 2

(* Each compile writes a heap pattern of its own, so a pipe read that
   returned another compile's object (or garbage) is caught. *)
let pattern op = Char.chr (Char.code 'a' + (op mod 26))
let heap_pages = Array.init 26 (fun i -> Bytes.make ps (pattern i))
let object_bytes = Array.init 26 (fun i -> Bytes.make (8 * ps) (pattern i))
let data_page = Bytes.make ps 'o'

let make_pass ~seed p =
  let engine = Hw.Engine.create ~tie_break:(Hw.Engine.Seeded seed) () in
  Calls.run_fn engine (fun () ->
        let t0 = now_ns () in
        let site = Calls.site_create ~frames:make_frames ~retention:64 engine in
        let images = Mix.Image.create_store site in
        let _ =
          Mix.Image.add_image images ~name:"make"
            ~text:(Bytes.make (8 * ps) 'M')
            ~data:(Bytes.make (2 * ps) 'm')
            ~bss_size:(8 * ps) ()
        in
        let _ =
          Mix.Image.add_image images ~name:"cc"
            ~text:(Bytes.make (48 * ps) 'C')
            ~data:(Bytes.make (8 * ps) 'c')
            ~bss_size:(8 * ps) ()
        in
        let m = Mix.Process.create_manager site images in
        let pvm = site.Nucleus.Site.pvm in
        let make = Calls.spawn_init m ~image:"make" in
        Calls.write ~op:(-1) make ~addr:Mix.Process.data_base
          (Bytes.make (2 * ps) 'S');
        let pipe = Mix.Pipe.create m in
        p.setup_ns <- p.setup_ns + (now_ns () - t0);
        let win = open_window ~all_domains:false pvm in
        let sim0 = Hw.Engine.now engine in
        let base = p.ops in
        for _ = 1 to make_compiles do
          Spans.Vec.push p.lat 0
        done;
        let timed op f =
          let t = Spans.op_clock () in
          let r = f () in
          let i = base + op in
          p.lat.data.(i) <- p.lat.data.(i) + (Spans.op_clock () - t);
          r
        in
        let next = ref 0 in
        while !next < make_compiles do
          let batch = min jobs (make_compiles - !next) in
          let children =
            Array.init batch (fun j ->
                let op = !next + j in
                timed op (fun () ->
                    let cc = Calls.fork ~op:(base + op) m make in
                    Calls.exec ~op:(base + op) m cc ~image:"cc";
                    cc))
          in
          Array.iteri
            (fun j cc ->
              let op = !next + j in
              let id = base + op in
              timed op (fun () ->
                  (* compile: read the text, fill data and heap, emit
                     an 8-page object through the pipe *)
                  for q = 0 to 47 do
                    ignore
                      (Calls.read ~op:id cc
                         ~addr:(Mix.Process.text_base + (q * ps))
                         ~len:ps)
                  done;
                  for q = 0 to 3 do
                    Calls.write ~op:id cc ~addr:(Mix.Process.data_base + (q * ps)) data_page
                  done;
                  let heap = Calls.sbrk ~op:id m cc (8 * ps) in
                  for q = 0 to 7 do
                    Calls.write ~op:id cc ~addr:(heap + (q * ps)) heap_pages.(op mod 26)
                  done;
                  Calls.pipe_write ~op:id m cc pipe ~addr:heap ~len:(8 * ps);
                  Calls.exit_ ~op:id m cc;
                  ignore (Calls.wait ~op:id m make)))
            children;
          (* make collects the objects into its bss *)
          Array.iteri
            (fun j _ ->
              let op = !next + j in
              let id = base + op in
              timed op (fun () ->
                  let n =
                    Calls.pipe_read ~op:id m make pipe ~addr:Mix.Process.bss_base
                  in
                  let got =
                    Calls.read ~op:id make ~addr:Mix.Process.bss_base ~len:(8 * ps)
                  in
                  if n <> 8 * ps || not (Bytes.equal got object_bytes.(op mod 26))
                  then
                    fail p ~ops:1
                      "compile %d: pipe_read returned %d bytes, not the %c object"
                      op n (pattern op)))
            children;
          next := !next + batch
        done;
        p.ops <- p.ops + make_compiles;
        p.sim_ns <- p.sim_ns + (Hw.Engine.now engine - sim0);
        close_window ~all_domains:false p pvm win;
        (pvm, Core.Inspect.digest pvm))

let stats_line (s : Core.Types.stats) =
  Printf.sprintf
    "faults=%d zero_fills=%d cow_copies=%d pull_ins=%d push_outs=%d \
     evictions=%d tree_lookups=%d history_created=%d stub_resolves=%d \
     eager_pages=%d moved_pages=%d"
    s.n_faults s.n_zero_fills s.n_cow_copies s.n_pull_ins s.n_push_outs
    s.n_evictions s.n_tree_lookups s.n_history_created s.n_stub_resolves
    s.n_eager_pages s.n_moved_pages

let make_check p (pvm, digest) =
  let ops = make_compiles in
  let s = stats_line (Core.Pvm.stats pvm) in
  let ref_stats = Reference.perturb Reference.make_stats in
  let ref_digest = Reference.perturb Reference.make_digest in
  if s <> ref_stats then
    fail p ~ops "make: final stats %s, reference %s" s ref_stats;
  if digest <> ref_digest then
    fail p ~ops "make: final digest %s, reference %s" digest ref_digest;
  sanitize p ~ops "make" pvm

(* --- storm: 16 workers x 256 private pages + a shared cache -------- *)

let storm_workers = 16
let storm_pages = 256
let storm_rounds = 2
let storm_ops = storm_workers * storm_pages * storm_rounds

(* The shape of Check.Crossval.storm, with every call wrapped and each
   worker page step timed inside its fibre. *)
let storm_pass ~seed ~domains p =
  let engine =
    if domains = 0 then Hw.Engine.create ~tie_break:(Hw.Engine.Seeded seed) ()
    else Hw.Engine.create ~tie_break:(Hw.Engine.Seeded seed) ~domains ()
  in
  let all_domains = domains > 0 in
  let base = p.ops in
  for _ = 1 to storm_ops do
    Spans.Vec.push p.lat 0
  done;
  let lat = p.lat.data in
  let win = ref None and sim0 = ref 0 in
  let pvm =
    Calls.run_fn engine (fun () ->
        let t0 = now_ns () in
        let workers = storm_workers and pages = storm_pages in
        let frames = (workers * pages) + pages + 16 in
        let pvm = Calls.pvm_create ~frames engine in
        let shared_base = 1 lsl 30 in
        let shared = Calls.cache_create ~op:(-1) pvm in
        let setup_ctx = Core.Context.create pvm in
        let setup =
          Calls.region_create ~op:(-1) pvm setup_ctx ~addr:0 ~size:(pages * ps)
            ~prot:Hw.Prot.read_write shared
        in
        for q = 0 to pages - 1 do
          Calls.pvm_write ~op:(-1) pvm setup_ctx ~addr:(q * ps)
            (Bytes.make 32 (Char.chr (q land 0xff)))
        done;
        Calls.region_destroy ~op:(-1) pvm setup;
        let ctxs =
          Array.init workers (fun _ ->
              let ctx = Core.Context.create pvm in
              let cache = Calls.cache_create ~op:(-1) pvm in
              let _ =
                Calls.region_create ~op:(-1) pvm ctx ~addr:0 ~size:(pages * ps)
                  ~prot:Hw.Prot.read_write cache
              in
              let _ =
                Calls.region_create ~op:(-1) pvm ctx ~addr:shared_base
                  ~size:(pages * ps) ~prot:Hw.Prot.read_only shared
              in
              ctx)
        in
        p.setup_ns <- p.setup_ns + (now_ns () - t0);
        win := Some (open_window ~all_domains pvm);
        sim0 := Hw.Engine.now engine;
        for w = 0 to workers - 1 do
          Hw.Engine.spawn engine
            ~name:(Printf.sprintf "storm-%d" w)
            ~affinity:(w + 1)
            (fun () ->
              let ctx = ctxs.(w) in
              for r = 0 to storm_rounds - 1 do
                for i = 0 to pages - 1 do
                  let q = (i + w + r) mod pages in
                  let op = base + (((w * storm_rounds) + r) * pages) + i in
                  let t = Spans.op_clock () in
                  Calls.pvm_write ~op pvm ctx ~addr:(q * ps)
                    (Bytes.make 16 (Char.chr (((w * 31) + q) land 0xff)));
                  ignore
                    (Calls.pvm_read ~op pvm ctx ~addr:(shared_base + (q * ps)) ~len:8);
                  lat.(op) <- Spans.op_clock () - t
                done
              done)
        done;
        pvm)
  in
  (match !win with
  | Some w -> close_window ~all_domains p pvm w
  | None -> ());
  p.sim_ns <- p.sim_ns + (Hw.Engine.now engine - !sim0);
  engine_counts engine p.counts;
  p.ops <- p.ops + storm_ops;
  pvm

let storm_check p pvm =
  let d = Core.Inspect.digest pvm in
  let ref_digest = Reference.perturb Reference.storm_digest in
  if d <> ref_digest then
    fail p ~ops:storm_ops "storm: digest %s, sequential reference %s" d
      ref_digest;
  sanitize p ~ops:storm_ops "storm" pvm
