(* Replay a failing property sequence with per-step state dumps. *)

let ps = 8192
let n_caches = 4
let n_pages = 4

type op = W of int * int * char | C of int * int * [ `H | `P | `E ] | M of int * int

let parse_ops s =
  s |> String.split_on_char ';'
  |> List.map String.trim
  |> List.filter (fun t -> t <> "")
  |> List.map (fun tok ->
         try Scanf.sscanf tok "W(%d,%d,%c)" (fun a b c -> W (a, b, c))
         with Scanf.Scan_failure _ | End_of_file -> (
           try Scanf.sscanf tok "C_hist(%d->%d)" (fun a b -> C (a, b, `H))
           with Scanf.Scan_failure _ | End_of_file -> (
             try Scanf.sscanf tok "C_page(%d->%d)" (fun a b -> C (a, b, `P))
             with Scanf.Scan_failure _ | End_of_file -> (
               try Scanf.sscanf tok "C_eager(%d->%d)" (fun a b -> C (a, b, `E))
               with Scanf.Scan_failure _ | End_of_file ->
                 Scanf.sscanf tok "M(%d->%d)" (fun a b -> M (a, b))))))

let ops = parse_ops Sys.argv.(1)

let pp_op = function
  | W (c, p, ch) -> Printf.sprintf "W(%d,%d,%c)" c p ch
  | C (s, d, `H) -> Printf.sprintf "C_hist(%d->%d)" s d
  | C (s, d, `P) -> Printf.sprintf "C_page(%d->%d)" s d
  | C (s, d, `E) -> Printf.sprintf "C_eager(%d->%d)" s d
  | M (s, d) -> Printf.sprintf "M(%d->%d)" s d

let () =
  let engine = Hw.Engine.create () in
  Hw.Engine.run engine (fun () ->
      let frames = try int_of_string (Sys.getenv "FRAMES") with Not_found -> 6 in
      let pvm = Core.Pvm.create ~frames ~cost:Hw.Cost.free ~engine () in
      Core.Pvm.set_segment_create_hook pvm (fun cache ->
          let cid = cache.Core.Types.c_id in
          let store = Hashtbl.create 16 in
          Some
            {
              Core.Gmi.b_name = "dbg-swap";
              b_pull_in =
                (fun ~offset ~size ~prot:_ ~fill_up ->
                  let data =
                    match Hashtbl.find_opt store offset with
                    | Some bytes -> Bytes.copy bytes
                    | None -> Bytes.make size '\000'
                  in
                  let c = Bytes.get data 17 in
                  Printf.printf "      [swap] pull cache_id=%d page=%d ch=%c\n"
                    cid (offset / ps)
                    (if c = '\000' then '.' else c);
                  fill_up ~offset data);
              b_get_write_access = (fun ~offset:_ ~size:_ -> ());
              b_push_out =
                (fun ~offset ~size ~copy_back ->
                  let data = copy_back ~offset ~size in
                  let c = Bytes.get data 17 in
                  Printf.printf "      [swap] push cache_id=%d page=%d ch=%c\n"
                    cid (offset / ps)
                    (if c = '\000' then '.' else c);
                  Hashtbl.replace store offset data);
            });
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
      let valid = Array.init n_caches (fun _ -> Array.make n_pages true) in
      let dump_internals () =
        let all =
          List.rev
            (List.map (fun c -> (-1, c))
               (List.filter
                  (fun (c : Core.Types.cache) ->
                    not (Array.exists (fun u -> u == c) caches))
                  (let open Core.Types in
                   pvm.caches)))
          @ Array.to_list (Array.mapi (fun i c -> (i, c)) caches)
        in
        List.iter
          (fun (i, cache) ->
            let open Core.Types in
            let stubs =
              Core.Shard_map.fold
                (fun (cid, o) e acc ->
                  if cid = cache.c_id then
                    match e with
                    | Cow_stub s ->
                      Printf.sprintf "s%d->%s" (o / ps)
                        (match s.cs_source with
                        | Src_page p -> Printf.sprintf "pg(%d,%d)" p.p_cache.c_id (p.p_offset / ps)
                        | Src_cache (c, so) -> Printf.sprintf "(%d,%d)" c.c_id (so / ps))
                      :: acc
                    | Sync_stub _ -> Printf.sprintf "sync%d" (o / ps) :: acc
                    | Resident _ -> acc
                  else acc)
                pvm.gmap []
            in

            Printf.printf
              "    cache%d(id=%d)%s hist=%s parents=[%s] pages=[%s] stubs=[%s] swapped=[%s]\n"
              i cache.c_id
              (if cache.c_is_history then "[hist-obj]" else "")
              (match cache.c_history with
              | Some h -> string_of_int h.c_id
              | None -> "-")
              (String.concat ","
                 (List.map
                    (fun f ->
                      Printf.sprintf "%d..+%d->%d@%d" (f.f_off / ps)
                        (f.f_size / ps) f.f_parent.c_id (f.f_parent_off / ps))
                    cache.c_parents))
              (String.concat ","
                 (List.map
                    (fun p ->
                      Printf.sprintf "p%d[f%d]%s%s%s" (p.p_offset / ps)
                        p.p_frame.Hw.Phys_mem.index
                        (if p.p_cow_protected then "*" else "")
                        (if p.p_cow_stubs <> [] then
                           Printf.sprintf "{%d stubs}" (List.length p.p_cow_stubs)
                         else "")
                        (Printf.sprintf "(ch=%c)"
                           (let c = Bytes.get p.p_frame.Hw.Phys_mem.bytes 17 in
                            if c = '\000' then '.' else c)))
                    (List.sort (fun a b -> compare a.p_offset b.p_offset)
                       cache.c_pages)))
              (String.concat "," stubs)
              (String.concat ","
                 (Hashtbl.fold
                    (fun o () acc -> string_of_int (o / ps) :: acc)
                    cache.c_backed_offs [])
              ^ "|pending:"
              ^ String.concat ","
                  (Core.Shard_map.fold
                     (fun (cid, o) stubs acc ->
                       if cid = cache.c_id then
                         Printf.sprintf "%d(%d stubs,%d live)" (o / ps)
                           (List.length stubs)
                           (List.length (List.filter (fun s -> s.cs_alive) stubs))
                         :: acc
                       else acc)
                     pvm.stub_sources [])))
          all
      in
      let dump_mmu () =
        (* region windows are at i*1024*ps, n_pages pages each *)
        List.iter
          (fun (r : Core.Types.region) ->
            let open Core.Types in
            let entries =
              List.concat
                (List.init n_pages (fun p ->
                     let vpn = (r.r_addr / ps) + p in
                     match Hw.Mmu.query r.r_context.ctx_space ~vpn with
                     | Some (frame, prot) ->
                       [ Printf.sprintf "v%d->f%d(%s)" p
                           frame.Hw.Phys_mem.index (Hw.Prot.to_string prot) ]
                     | None -> []))
            in
            Printf.printf "    region@%x: %s\n" r.r_addr
              (String.concat " " entries))
          (Core.Context.region_list ctx)
      in
      let dump tag =
        Printf.printf "-- %s\n" tag;
        dump_internals ();
        dump_mmu ();
        for i = 0 to n_caches - 1 do
          let actual =
            Core.Pvm.read pvm ctx ~addr:(i * 1024 * ps) ~len:(n_pages * ps)
          in
          let per_page b =
            String.concat ""
              (List.init n_pages (fun p ->
                   let c = Bytes.get b ((p * ps) + 17) in
                   if c = '\000' then "." else String.make 1 c))
          in
          let a = per_page actual and m = per_page model.(i) in
          let mask =
            String.concat ""
              (List.init n_pages (fun p -> if valid.(i).(p) then "v" else "?"))
          in
          let mismatch =
            List.exists
              (fun p -> valid.(i).(p) && a.[p] <> m.[p])
              (List.init n_pages Fun.id)
          in
          Printf.printf "  cache%d actual=%s model=%s mask=%s%s\n" i a m mask
            (if mismatch then "   <-- MISMATCH" else "")
        done;
        dump_mmu ()
      in
      ignore dump;
      List.iter
        (fun op ->
          (match op with
          | W (c, p, ch) ->
            let data = Bytes.make 64 ch in
            Bytes.blit data 0 model.(c) ((p * ps) + 17) 64;
            Core.Pvm.write pvm ctx ~addr:((c * 1024 * ps) + (p * ps) + 17) data
          | C (s, d, strategy) ->
            Bytes.blit model.(s) 0 model.(d) 0 (n_pages * ps);
            Array.blit valid.(s) 0 valid.(d) 0 n_pages;
            let strategy =
              match strategy with `H -> `History | `P -> `Per_page | `E -> `Eager
            in
            Core.Cache.copy pvm ~strategy ~src:caches.(s) ~src_off:0
              ~dst:caches.(d) ~dst_off:0 ~size:(n_pages * ps) ()
          | M (s, d) ->
            Bytes.blit model.(s) 0 model.(d) 0 (n_pages * ps);
            Array.blit valid.(s) 0 valid.(d) 0 n_pages;
            Array.fill valid.(s) 0 n_pages false;
            Core.Cache.move pvm ~src:caches.(s) ~src_off:0 ~dst:caches.(d)
              ~dst_off:0 ~size:(n_pages * ps) ());
          Printf.printf "-- %s\n" (pp_op op);
          dump_internals ();
          match Check.Sanitizer.run pvm with
          | [] -> ()
          | errs ->
            Printf.printf "  INVARIANT: %s\n"
              (String.concat "; "
                 (List.map (Format.asprintf "%a" Check.Sanitizer.pp_violation) errs)))
        ops;
      dump "FINAL";
      (* teardown: everything must come back *)
      Core.Context.destroy pvm ctx;
      Array.iter (fun cache -> Core.Cache.destroy pvm cache) caches;
      Printf.printf "-- AFTER TEARDOWN: %d frames in use\n"
        (Hw.Phys_mem.used_frames (Core.Pvm.memory pvm));
      dump_internals ())
