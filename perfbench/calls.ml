(* The benchmark's calls into the layers' public functions.

   Each wrapper is the plain call when tracing is off (no closure, no
   allocation) and the call inside a host-clock span when it is on.
   [op] is the id of the op the call belongs to, -1 outside any op. *)

let n_pvm_create = Spans.name "core.pvm_create"
let n_region_create = Spans.name "core.region_create"
let n_region_destroy = Spans.name "core.region_destroy"
let n_cache_create = Spans.name "core.cache_create"
let n_cache_copy = Spans.name "core.cache_copy"
let n_cache_destroy = Spans.name "core.cache_destroy"
let n_touch = Spans.name "core.touch"
let n_pvm_write = Spans.name "core.pvm_write"
let n_pvm_read = Spans.name "core.pvm_read"
let n_site_create = Spans.name "nucleus.site_create"
let n_spawn_init = Spans.name "mix.spawn_init"
let n_fork = Spans.name "mix.fork"
let n_exec = Spans.name "mix.exec"
let n_read = Spans.name "mix.read"
let n_write = Spans.name "mix.write"
let n_sbrk = Spans.name "mix.sbrk"
let n_pipe_write = Spans.name "mix.pipe_write"
let n_pipe_read = Spans.name "mix.pipe_read"
let n_exit = Spans.name "mix.exit"
let n_wait = Spans.name "mix.wait"

let run_fn eng f =
  if !Spans.on then Spans.run eng f else Hw.Engine.run_fn eng f

(* --- hw / core ----------------------------------------------------- *)

let pvm_create ?cost ~frames engine =
  let pvm =
    if !Spans.on then
      Spans.call n_pvm_create (-1) (fun () ->
          Core.Pvm.create ?cost ~frames ~engine ())
    else Core.Pvm.create ?cost ~frames ~engine ()
  in
  Spans.watch pvm;
  pvm

let region_create ~op pvm ctx ~addr ~size ~prot cache =
  if !Spans.on then
    Spans.call n_region_create op (fun () ->
        Core.Region.create pvm ctx ~addr ~size ~prot cache ~offset:0)
  else Core.Region.create pvm ctx ~addr ~size ~prot cache ~offset:0

let region_destroy ~op pvm r =
  if !Spans.on then
    Spans.call n_region_destroy op (fun () -> Core.Region.destroy pvm r)
  else Core.Region.destroy pvm r

let cache_create ~op pvm =
  if !Spans.on then
    Spans.call n_cache_create op (fun () -> Core.Cache.create pvm ())
  else Core.Cache.create pvm ()

let cache_copy ~op pvm ~src ~dst ~size =
  if !Spans.on then
    Spans.call n_cache_copy op (fun () ->
        Core.Cache.copy pvm ~strategy:`History ~src ~src_off:0 ~dst
          ~dst_off:0 ~size ())
  else
    Core.Cache.copy pvm ~strategy:`History ~src ~src_off:0 ~dst ~dst_off:0
      ~size ()

let cache_destroy ~op pvm c =
  if !Spans.on then
    Spans.call n_cache_destroy op (fun () -> Core.Cache.destroy pvm c)
  else Core.Cache.destroy pvm c

let touch ~op pvm ctx ~addr =
  if !Spans.on then
    Spans.faulting n_touch op (fun () ->
        Core.Pvm.touch pvm ctx ~addr ~access:`Write)
  else Core.Pvm.touch pvm ctx ~addr ~access:`Write

let pvm_write ~op pvm ctx ~addr b =
  if !Spans.on then
    Spans.faulting n_pvm_write op (fun () -> Core.Pvm.write pvm ctx ~addr b)
  else Core.Pvm.write pvm ctx ~addr b

let pvm_read ~op pvm ctx ~addr ~len =
  if !Spans.on then
    Spans.faulting n_pvm_read op (fun () -> Core.Pvm.read pvm ctx ~addr ~len)
  else Core.Pvm.read pvm ctx ~addr ~len

(* --- nucleus / mix ------------------------------------------------- *)

let site_create ~frames ~retention engine =
  let site =
    if !Spans.on then
      Spans.call n_site_create (-1) (fun () ->
          Nucleus.Site.create ~frames ~retention_capacity:retention ~engine ())
    else Nucleus.Site.create ~frames ~retention_capacity:retention ~engine ()
  in
  Spans.watch site.Nucleus.Site.pvm;
  site

let spawn_init m ~image =
  if !Spans.on then
    Spans.call n_spawn_init (-1) (fun () -> Mix.Process.spawn_init m ~image)
  else Mix.Process.spawn_init m ~image

let fork ~op m p =
  if !Spans.on then Spans.call n_fork op (fun () -> Mix.Process.fork m p)
  else Mix.Process.fork m p

let exec ~op m p ~image =
  if !Spans.on then
    Spans.call n_exec op (fun () -> Mix.Process.exec m p ~image)
  else Mix.Process.exec m p ~image

let read ~op p ~addr ~len =
  if !Spans.on then
    Spans.faulting n_read op (fun () -> Mix.Process.read p ~addr ~len)
  else Mix.Process.read p ~addr ~len

let write ~op p ~addr b =
  if !Spans.on then
    Spans.faulting n_write op (fun () -> Mix.Process.write p ~addr b)
  else Mix.Process.write p ~addr b

let sbrk ~op m p n =
  if !Spans.on then Spans.call n_sbrk op (fun () -> Mix.Process.sbrk m p n)
  else Mix.Process.sbrk m p n

let pipe_write ~op m p pipe ~addr ~len =
  if !Spans.on then
    Spans.call n_pipe_write op (fun () -> Mix.Pipe.write m p pipe ~addr ~len)
  else Mix.Pipe.write m p pipe ~addr ~len

let pipe_read ~op m p pipe ~addr =
  if !Spans.on then
    Spans.call n_pipe_read op (fun () -> Mix.Pipe.read m p pipe ~addr)
  else Mix.Pipe.read m p pipe ~addr

let exit_ ~op m p =
  if !Spans.on then
    Spans.call n_exit op (fun () -> Mix.Process.exit_ m p ~status:0)
  else Mix.Process.exit_ m p ~status:0

let wait ~op m p =
  if !Spans.on then Spans.call n_wait op (fun () -> Mix.Process.wait m p)
  else Mix.Process.wait m p
