(* The workload the paper's intro motivates: a Unix shell on
   Chorus/MIX.  Forks children that exec a "compiler", watches the
   history trees defer every copy, and prints what physically
   happened.

   Run with: dune exec examples/unix_fork.exe *)

let () =
  let engine = Hw.Engine.create () in
  Hw.Engine.run engine (fun () ->
      let site = Nucleus.Site.create ~frames:512 ~engine () in
      let images = Mix.Image.create_store site in
      let _ =
        Mix.Image.add_image images ~name:"sh"
          ~text:(Bytes.of_string "shell text segment")
          ~data:(Bytes.of_string "shell data segment") ()
      in
      let _ =
        Mix.Image.add_image images ~name:"cc"
          ~text:(Bytes.make (16 * 8192) 'C')
          ~data:(Bytes.make (4 * 8192) 'd')
          ()
      in
      let m = Mix.Process.create_manager site images in
      let pvm = site.Nucleus.Site.pvm in

      let shell = Mix.Process.spawn_init m ~image:"sh" in
      Mix.Process.write shell ~addr:Mix.Process.data_base
        (Bytes.of_string "PATH=/bin HOME=/root");
      Printf.printf "shell started (pid %d)\n" (Mix.Process.pid shell);

      (* a pipeline: two children, like `cc | cc` *)
      for round = 1 to 3 do
        let t0 = Hw.Engine.now engine in
        Core.Pvm.reset_stats pvm;
        let c1 = Mix.Process.fork m shell in
        let c2 = Mix.Process.fork m shell in
        let forked = Hw.Engine.now engine - t0 in
        let stats = Core.Pvm.stats pvm in
        Printf.printf
          "\nround %d: forked pids %d,%d in %s -- %d pages actually copied, \
           %d history objects created\n"
          round (Mix.Process.pid c1) (Mix.Process.pid c2)
          (Format.asprintf "%a" Hw.Sim_time.pp forked)
          stats.Core.Types.n_cow_copies stats.n_history_created;

        (* children exec the compiler and do some work *)
        Mix.Process.exec m c1 ~image:"cc";
        Mix.Process.exec m c2 ~image:"cc";
        Mix.Process.write c1 ~addr:Mix.Process.data_base (Bytes.make 999 'x');
        Mix.Process.write c2 ~addr:Mix.Process.stack_base (Bytes.make 99 'y');

        (* the shell keeps working while children run: its writes push
           originals into the history objects *)
        Mix.Process.write shell ~addr:Mix.Process.data_base
          (Bytes.of_string (Printf.sprintf "round=%d" round));

        Mix.Process.exit_ m c1 ~status:0;
        Mix.Process.exit_ m c2 ~status:0;
        ignore (Mix.Process.wait m shell);
        ignore (Mix.Process.wait m shell);
        Printf.printf
          "children exited; shell data: %S; invariants: %s\n"
          (Bytes.to_string
             (Mix.Process.read shell ~addr:Mix.Process.data_base ~len:7))
          (match Check.Sanitizer.run pvm with
          | [] -> "OK"
          | e ->
            String.concat "; "
              (List.map (Format.asprintf "%a" Check.Sanitizer.pp_violation) e))
      done;

      Printf.printf "\nsegment-manager statistics: binds=%d retention-hits=%d \
         swap-segments=%d\n"
        (Seg.Segment_manager.stats site.Nucleus.Site.segd).Seg.Segment_manager.binds
        (Seg.Segment_manager.stats site.Nucleus.Site.segd).retention_hits
        (Seg.Segment_manager.stats site.Nucleus.Site.segd).swap_segments;
      Printf.printf "total simulated time: %s\n"
        (Format.asprintf "%a" Hw.Sim_time.pp (Hw.Engine.now engine)))
