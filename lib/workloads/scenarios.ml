(* The named scenarios: one table from name to Check.Explore.scenario
   (see scenarios.mli), plus the bodies the interactive fig3, fork and
   dsm commands share with it. *)

let ps = 8192

let fig3_tree engine ~register =
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
  (pvm, ctx, src)

(* ... and a write into the first copy, resolved through the tree. *)
let fig3 engine ~register =
  let pvm, ctx, _ = fig3_tree engine ~register in
  Core.Pvm.write pvm ctx ~addr:(1024 * ps) (Bytes.make ps 'c');
  Check.Explore.observe_digests [ pvm ]

let fork_shell engine ~register =
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
  (site, m, Mix.Process.spawn_init m ~image:"sh")

let fork_rounds m shell n =
  for i = 1 to n do
    let child = Mix.Process.fork m shell in
    Mix.Process.write shell ~addr:Mix.Process.data_base
      (Bytes.make 32 (Char.chr (65 + (i mod 26))));
    Mix.Process.exit_ m child ~status:0;
    ignore (Mix.Process.wait m shell)
  done

let fork engine ~register =
  let site, m, shell = fork_shell engine ~register in
  fork_rounds m shell 4;
  Check.Explore.observe_digests [ site.Nucleus.Site.pvm ]

type dsm_site = Core.Types.pvm * Core.Types.context

let dsm_sites engine ~register =
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
  (seg, a, b)

let dsm_writes a b n =
  for i = 1 to n do
    let pvm, ctx = if i mod 2 = 0 then a else b in
    Core.Pvm.write pvm ctx ~addr:0
      (Bytes.of_string (Printf.sprintf "round-%d" i))
  done

let dsm engine ~register =
  let _, a, b = dsm_sites engine ~register in
  dsm_writes a b 10;
  Check.Explore.observe_digests [ fst a; fst b ]

let ipc engine ~register =
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
   check harness perturbs and checks. *)
let contend engine ~register =
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

let workloads =
  let mk name run oracle = { Check.Explore.name; run; oracle } in
  Check.Explore.
    [
      mk "fig3" fig3 Schedule_independent;
      mk "fork" fork Schedule_independent;
      mk "dsm" dsm Schedule_independent;
      mk "ipc" ipc Schedule_independent;
      mk "contend" contend No_oracle;
      Check.Crossval.storm ();
    ]

let all = workloads @ [ Check.Explore.pressure; Check.Explore.contend_model ]
let find name = List.find_opt (fun s -> s.Check.Explore.name = name) all
