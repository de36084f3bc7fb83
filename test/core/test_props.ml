(* Property tests: arbitrary interleavings of writes and copies (all
   three strategies) must leave every cache bit-for-bit identical to
   an eager-copy oracle, with the history-tree invariants intact —
   both with ample physical memory and under heavy paging pressure. *)

let ps = 8192
let n_caches = 4
let n_pages = 4

type op =
  | Write of int * int * char (* cache, page, value *)
  | Copy of int * int * [ `H | `P | `E ] (* src, dst, strategy *)
  | Move of int * int (* src, dst: source becomes undefined *)

let pp_op = function
  | Write (c, p, ch) -> Printf.sprintf "W(%d,%d,%c)" c p ch
  | Copy (s, d, `H) -> Printf.sprintf "C_hist(%d->%d)" s d
  | Copy (s, d, `P) -> Printf.sprintf "C_page(%d->%d)" s d
  | Copy (s, d, `E) -> Printf.sprintf "C_eager(%d->%d)" s d
  | Move (s, d) -> Printf.sprintf "M(%d->%d)" s d

let gen_op =
  QCheck.Gen.(
    frequency
      [
        ( 3,
          map3
            (fun c p ch -> Write (c, p, ch))
            (int_bound (n_caches - 1))
            (int_bound (n_pages - 1))
            (map Char.chr (int_range 65 90)) );
        ( 2,
          map3
            (fun s d st ->
              let d = if d = s then (d + 1) mod n_caches else d in
              Copy (s, d, st))
            (int_bound (n_caches - 1))
            (int_bound (n_caches - 1))
            (oneofl [ `H; `P; `E ]) );
        ( 1,
          map2
            (fun s d ->
              let d = if d = s then (d + 1) mod n_caches else d in
              Move (s, d))
            (int_bound (n_caches - 1))
            (int_bound (n_caches - 1)) );
      ])

let arb_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
    QCheck.Gen.(list_size (int_range 1 25) gen_op)

let install_swap pvm =
  Core.Pvm.set_segment_create_hook pvm (fun _cache ->
      let store = Hashtbl.create 16 in
      Some
        {
          Core.Gmi.b_name = "prop-swap";
          b_pull_in =
            (fun ~offset ~size ~prot:_ ~fill_up ->
              let data =
                match Hashtbl.find_opt store offset with
                | Some bytes -> Bytes.copy bytes
                | None -> Bytes.make size '\000'
              in
              fill_up ~offset data);
          b_get_write_access = (fun ~offset:_ ~size:_ -> ());
          b_push_out =
            (fun ~offset ~size ~copy_back ->
              Hashtbl.replace store offset (copy_back ~offset ~size));
        })

(* The oracle: plain byte arrays, eager copies.  With [teardown],
   everything is destroyed afterwards and the pool must be whole again
   — the frame-leak check. *)
let run_ops ?(teardown = false) ~frames ~swap ops =
  let engine = Hw.Engine.create () in
  Hw.Engine.run_fn engine (fun () ->
      let pvm = Core.Pvm.create ~frames ~cost:Hw.Cost.free ~engine () in
      if swap then install_swap pvm;
      let ctx = Core.Context.create pvm in
      let caches = Array.init n_caches (fun _ -> Core.Cache.create pvm ()) in
      Array.iteri
        (fun i cache ->
          ignore
            (Core.Region.create pvm ctx ~addr:(i * 1024 * ps)
               ~size:(n_pages * ps) ~prot:Hw.Prot.read_write cache ~offset:0))
        caches;
      let model =
        Array.init n_caches (fun _ -> Bytes.make (n_pages * ps) '\000')
      in
      (* pages whose contents are defined (move leaves its source
         undefined, so those pages are not compared) *)
      let valid = Array.init n_caches (fun _ -> Array.make n_pages true) in
      List.iter
        (fun op ->
          (match op with
          | Write (c, p, ch) ->
            let data = Bytes.make 64 ch in
            Bytes.blit data 0 model.(c) ((p * ps) + 17) 64;
            Core.Pvm.write pvm ctx
              ~addr:((c * 1024 * ps) + (p * ps) + 17)
              data
          | Copy (s, d, strategy) ->
            Bytes.blit model.(s) 0 model.(d) 0 (n_pages * ps);
            Array.blit valid.(s) 0 valid.(d) 0 n_pages;
            let strategy =
              match strategy with
              | `H -> `History
              | `P -> `Per_page
              | `E -> `Eager
            in
            Core.Cache.copy pvm ~strategy ~src:caches.(s) ~src_off:0
              ~dst:caches.(d) ~dst_off:0 ~size:(n_pages * ps) ()
          | Move (s, d) ->
            Bytes.blit model.(s) 0 model.(d) 0 (n_pages * ps);
            Array.blit valid.(s) 0 valid.(d) 0 n_pages;
            Array.fill valid.(s) 0 n_pages false;
            Core.Cache.move pvm ~src:caches.(s) ~src_off:0 ~dst:caches.(d)
              ~dst_off:0 ~size:(n_pages * ps) ());
          (* the whole-state catalogue, strict: single-fibre runs are
             quiescent between operations *)
          match Check.Sanitizer.run pvm with
          | [] -> ()
          | vs ->
            QCheck.Test.fail_reportf "sanitizer after %s: %s" (pp_op op)
              (String.concat "; "
                 (List.map
                    (Format.asprintf "%a" Check.Sanitizer.pp_violation)
                    vs)))
        ops;
      (* Compare every defined page with the oracle, bit for bit. *)
      Array.iteri
        (fun i cache ->
          ignore cache;
          let actual =
            Core.Pvm.read pvm ctx ~addr:(i * 1024 * ps) ~len:(n_pages * ps)
          in
          for p = 0 to n_pages - 1 do
            if
              valid.(i).(p)
              && not
                   (Bytes.equal
                      (Bytes.sub actual (p * ps) ps)
                      (Bytes.sub model.(i) (p * ps) ps))
            then
              QCheck.Test.fail_reportf
                "cache %d page %d diverged from oracle after [%s]" i p
                (String.concat "; " (List.map pp_op ops))
          done)
        caches;
      (* frame-accounting conservation: every used frame is owned by
         exactly one page descriptor *)
      let held = Core.Inspect.frames_held pvm in
      let used = Hw.Phys_mem.used_frames (Core.Pvm.memory pvm) in
      if held <> used then
        QCheck.Test.fail_reportf
          "frame accounting broken: %d held by pages, %d used, after [%s]"
          held used
          (String.concat "; " (List.map pp_op ops));
      if teardown then begin
        Core.Context.destroy pvm ctx;
        Array.iter (fun cache -> Core.Cache.destroy pvm cache) caches;
        let used = Hw.Phys_mem.used_frames (Core.Pvm.memory pvm) in
        if used <> 0 then
          QCheck.Test.fail_reportf "%d frames leaked after [%s]" used
            (String.concat "; " (List.map pp_op ops))
      end;
      (match Check.Sanitizer.run pvm with
      | [] -> ()
      | vs ->
        QCheck.Test.fail_reportf "final sanitizer sweep: %s"
          (String.concat "; "
             (List.map (Format.asprintf "%a" Check.Sanitizer.pp_violation) vs)));
      true)

let prop_plenty_of_memory =
  QCheck.Test.make ~count:400 ~name:"copies match eager oracle (no pressure)"
    arb_ops
    (run_ops ~frames:512 ~swap:false)

let prop_under_pressure =
  QCheck.Test.make ~count:400
    ~name:"copies match eager oracle (paging pressure)" arb_ops
    (run_ops ~frames:6 ~swap:true)

let prop_no_frame_leaks =
  QCheck.Test.make ~count:300 ~name:"no frame leaks after teardown" arb_ops
    (run_ops ~teardown:true ~frames:64 ~swap:true)

(* Fragment-list algebra: inserting arbitrary fragments keeps the list
   sorted and non-overlapping with the newest fragment winning. *)
let prop_parent_fragments =
  let arb =
    QCheck.make
      ~print:(fun l ->
        String.concat ";"
          (List.map (fun (o, s) -> Printf.sprintf "(%d,%d)" o s) l))
      QCheck.Gen.(
        list_size (int_range 1 20)
          (pair (int_bound 40) (int_range 1 10)))
  in
  QCheck.Test.make ~count:300 ~name:"parent fragment list stays canonical" arb
    (fun frags ->
      let engine = Hw.Engine.create () in
      Hw.Engine.run_fn engine (fun () ->
          let pvm = Core.Pvm.create ~frames:4 ~cost:Hw.Cost.free ~engine () in
          let parent = Core.Cache.create pvm () in
          let child = Core.Cache.create pvm () in
          List.iter
            (fun (off, size) ->
              Core.Parents.insert child
                {
                  Core.Types.f_off = off * ps;
                  f_size = size * ps;
                  f_parent = parent;
                  f_parent_off = off * ps;
                  f_policy = `Copy_on_write;
                })
            frags;
          Core.Parents.check_invariant child))

let tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_plenty_of_memory;
      prop_under_pressure;
      prop_no_frame_leaks;
      prop_parent_fragments;
    ]
