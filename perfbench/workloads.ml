(* The four workloads. Each builds a fresh NTCS installation from the seed
   through the public builders (Cluster, World.Par), spawns closed-loop
   application processes that use only the ALI, and returns a handle the
   benchmark advances one scheduler event (or one barrier slice) at a time.

   An op is one completed round trip (rpc_*, par_2shard) or one completed
   Ali_layer.locate (naming_churn). Every op's output is checked against
   what the workload knows it must be: the echo's "ok", or the address
   the name was preloaded under. *)

open Ntcs
open Ntcs_wire
module Sched = Ntcs_sim.Sched
module World = Ntcs_sim.World
module Net = Ntcs_sim.Net
module Machine = Ntcs_sim.Machine
module Rng = Ntcs_util.Rng

(* What one world's application processes report to the benchmark. Par
   shards run on separate domains, so each world owns its tally. *)
type tally = {
  mutable ok : int;
  mutable failed : int;  (** the primitive returned an error *)
  mutable wrong : int;  (** the primitive returned a wrong answer *)
  lat_vus : Probe.Ibuf.t;  (** virtual µs of each successful op *)
  mutable first_ok_vus : int;  (** virtual time of the first success *)
  mutable writes : int;  (** naming_churn registrar writes *)
  mutable commods : Commod.t list;  (** application ComMods bound so far *)
}

let tally () =
  {
    ok = 0;
    failed = 0;
    wrong = 0;
    lat_vus = Probe.Ibuf.create ();
    first_ok_vus = -1;
    writes = 0;
    commods = [];
  }

let note_ok t ~t0 ~now =
  t.ok <- t.ok + 1;
  Probe.Ibuf.push t.lat_vus (now - t0);
  if t.first_ok_vus < 0 then t.first_ok_vus <- now

type inst = {
  clusters : Cluster.t array;  (** one per world *)
  tallies : tally array;  (** one per world *)
  advance : unit -> bool;  (** one event / slice; [false] when quiescent *)
  par : World.Par.t option;
}

type t = {
  name : string;
  warm : int;  (** attempts before the window opens *)
  window : int;  (** attempts in the measured window *)
  build : seed:int -> timers:Probe.timers option -> workers:int -> inst;
}

let retry_sleep_us = 50_000

let rec bind_retry ?timers node name =
  match Probe.timed timers (fun t -> t.Probe.bind_ns) (fun () -> Commod.bind node ~name) with
  | Ok c -> c
  | Error _ ->
    Sched.sleep (Node.sched node) retry_sleep_us;
    bind_retry ?timers node name

let bind_app ?timers ~tally node name =
  let c = bind_retry ?timers node name in
  tally.commods <- c :: tally.commods;
  c

let rec locate_retry ?timers commod name =
  match
    Probe.timed timers (fun t -> t.Probe.locate_ns) (fun () -> Ali_layer.locate commod name)
  with
  | Ok a -> a
  | Error _ ->
    Sched.sleep (Node.sched (Commod.node commod)) retry_sleep_us;
    locate_retry ?timers commod name

(* --- the rpc loop shared by rpc_1gw, rpc_3gw_hetero and par_2shard --- *)

let ok_bytes = Bytes.of_string "ok"

(* A 256-byte structured message drawn from the seed: 32 int32 fields and
   a 128-byte string. Structured, so the IP layer picks image or packed
   mode from the machine pair instead of byte-copying a raw payload. *)
let message_layout = List.init 32 (fun _ -> Layout.F_i32) @ [ Layout.F_char_array 128 ]

let message_values seed =
  let rng = Rng.create (seed * 7919 + 1) in
  List.map
    (function
      | Layout.F_char_array n ->
        Layout.V_str (String.init (n - 1) (fun _ -> Char.chr (97 + Rng.int rng 26)))
      | Layout.F_i8 | Layout.F_i16 | Layout.F_i32 | Layout.F_i64 ->
        Layout.V_int (Rng.int rng 0x3FFF_FFFF))
    message_layout

let payload_of_seed seed =
  let values = message_values seed in
  Convert.payload
    ~image:(fun () -> Layout.encode ~order:Endian.Be message_layout values)
    ~packed:(fun () -> Packed.run_pack (Packed.of_layout message_layout) values)

let echo_server ?timers ~tally ~name node =
  let commod = bind_app ~tally node name in
  let rec loop () =
    (match Ali_layer.receive commod with
     | Ok env when Ali_layer.expects_reply env ->
       ignore
         (Probe.timed timers (fun t -> t.Probe.reply_ns) (fun () ->
              Ali_layer.reply commod env (Convert.payload_raw (Bytes.of_string "ok"))))
     | Ok _ | Error _ -> ());
    loop ()
  in
  loop ()

(* Closed loop: the next call leaves only when the previous one returned.
   [after_call k] runs after the k-th call (par_2shard's barrier token). *)
let rpc_client ?timers ?(after_call = fun _ -> ()) ~tally ~payload node =
  let sched = Node.sched node in
  let commod = bind_app ?timers ~tally node "client" in
  let dst = locate_retry ?timers commod "echo" in
  let rec loop k =
    let t0 = Sched.now sched in
    (match
       Probe.timed timers (fun t -> t.Probe.send_sync_ns) (fun () ->
           Ali_layer.send_sync commod ~dst payload)
     with
     | Ok env when Bytes.equal env.Ali_layer.data ok_bytes ->
       note_ok tally ~t0 ~now:(Sched.now sched)
     | Ok _ -> tally.wrong <- tally.wrong + 1
     | Error _ -> tally.failed <- tally.failed + 1);
    after_call k;
    loop (k + 1)
  in
  loop 1

let stepper ?timers sched =
  match timers with
  | None -> fun () -> Sched.step sched
  | Some tm ->
    fun () ->
      let t0 = Probe.clock_ns () in
      let r = Sched.step sched in
      Probe.Ibuf.push tm.Probe.step_ns (Probe.clock_ns () - t0);
      r

let single ?timers cluster tally =
  {
    clusters = [| cluster |];
    tallies = [| tally |];
    advance = stepper ?timers (Cluster.sched cluster);
    par = None;
  }

let rpc_build ~hetero ~seed ~timers ~workers:_ =
  let nets, machines, gateways =
    if not hetero then
      ( [ ("lan0", Net.Tcp_lan); ("lan1", Net.Tcp_lan) ],
        [
          ("ns-m", Machine.Vax, [ "lan0" ]);
          ("client-m", Machine.Sun3, [ "lan0" ]);
          ("gw-m0", Machine.Sun3, [ "lan0"; "lan1" ]);
          ("srv-m", Machine.Sun3, [ "lan1" ]);
        ],
        [ ("gw0", "gw-m0", [ "lan0"; "lan1" ]) ] )
    else
      ( [
          ("lan0", Net.Tcp_lan);
          ("ring1", Net.Mbx_ring);
          ("lan2", Net.Tcp_lan);
          ("ring3", Net.Mbx_ring);
        ],
        [
          ("ns-m", Machine.Vax, [ "lan0" ]);
          ("client-m", Machine.Sun3, [ "lan0" ]);
          ("gw-m0", Machine.Sun3, [ "lan0"; "ring1" ]);
          ("gw-m1", Machine.Apollo, [ "ring1"; "lan2" ]);
          ("gw-m2", Machine.Sun3, [ "lan2"; "ring3" ]);
          ("srv-m", Machine.Vax, [ "ring3" ]);
        ],
        [
          ("gw0", "gw-m0", [ "lan0"; "ring1" ]);
          ("gw1", "gw-m1", [ "ring1"; "lan2" ]);
          ("gw2", "gw-m2", [ "lan2"; "ring3" ]);
        ] )
  in
  let c =
    Cluster.build
      ~config:{ World.Config.default with World.Config.seed }
      ~nets ~machines ~gateways ~ns:"ns-m" ()
  in
  let tally = tally () in
  ignore
    (Cluster.spawn c ~machine:"srv-m" ~name:"echo" (echo_server ?timers ~tally ~name:"echo"));
  ignore
    (Cluster.spawn c ~machine:"client-m" ~name:"client"
       (rpc_client ?timers ~tally ~payload:(payload_of_seed seed)));
  single ?timers c tally

(* --- naming_churn --- *)

let naming_shards = 4
let names_per_server = 10_000
let hot_names = 256
let lookup_period_us = 1_000
let write_period_us = 20_000

let naming_build ~seed ~timers ~workers:_ =
  let c =
    Cluster.build
      ~config:
        {
          World.Config.default with
          World.Config.seed;
          naming = { World.Config.shards = naming_shards; cache_capacity = 512 };
        }
      ~nets:[ ("ether", Net.Tcp_lan) ]
      ~machines:
        [
          ("vax1", Machine.Vax, [ "ether" ]);
          ("sun1", Machine.Sun3, [ "ether" ]);
          ("sun2", Machine.Sun3, [ "ether" ]);
          ("client-m", Machine.Sun3, [ "ether" ]);
          ("reg-m", Machine.Apollo, [ "ether" ]);
        ]
      ~ns:"vax1" ~ns_replicas:[ "sun1"; "sun2" ] ()
  in
  (* 10^4 names per shard server, each preloaded on the server that owns
     it under the pinned shard map; the expected answer of every lookup is
     the address its owner minted. *)
  let servers = Array.of_list (Cluster.name_servers c) in
  let buckets = Array.make (Array.length servers) [] in
  let filled = Array.make (Array.length servers) 0 in
  let i = ref 0 in
  while Array.exists (fun n -> n < names_per_server) filled do
    let name = Printf.sprintf "obj-%06d" !i in
    incr i;
    Array.iteri
      (fun k s ->
        if filled.(k) < names_per_server && Name_server.owns s name then begin
          buckets.(k) <- (name, []) :: buckets.(k);
          filled.(k) <- filled.(k) + 1
        end)
      servers
  done;
  let expected = Hashtbl.create (names_per_server * Array.length servers) in
  Array.iteri
    (fun k s ->
      Name_server.preload s (List.rev buckets.(k));
      List.iter
        (fun e -> Hashtbl.replace expected e.Ns_proto.e_name e.Ns_proto.e_addr)
        (Name_server.dump s))
    servers;
  let all = Array.of_list (Hashtbl.fold (fun n _ acc -> n :: acc) expected []) in
  Array.sort compare all;
  let rng = Rng.create seed in
  let hot = Array.copy all in
  Rng.shuffle rng hot;
  let hot = Array.sub hot 0 hot_names in
  let tally = tally () in
  ignore
    (Cluster.spawn c ~machine:"client-m" ~name:"client" (fun node ->
         let sched = Node.sched node in
         let commod = bind_app ?timers ~tally node "client" in
         let rec loop () =
           let name = if Rng.int rng 100 < 80 then Rng.pick rng hot else Rng.pick rng all in
           let t0 = Sched.now sched in
           (match
              Probe.timed timers (fun t -> t.Probe.locate_ns) (fun () ->
                  Ali_layer.locate commod name)
            with
            | Ok a when Addr.equal a (Hashtbl.find expected name) ->
              note_ok tally ~t0 ~now:(Sched.now sched)
            | Ok _ -> tally.wrong <- tally.wrong + 1
            | Error _ -> tally.failed <- tally.failed + 1);
           Sched.sleep sched (max 0 (t0 + lookup_period_us - Sched.now sched));
           loop ()
         in
         loop ()));
  (* The write load: ephemeral modules bound and closed under names the
     client never looks up, one write every [write_period_us]. *)
  ignore
    (Cluster.spawn c ~machine:"reg-m" ~name:"registrar" (fun node ->
         let sched = Node.sched node in
         let rec loop k =
           Sched.sleep sched write_period_us;
           let m = bind_retry node (Printf.sprintf "eph-%d" k) in
           tally.writes <- tally.writes + 1;
           Sched.sleep sched write_period_us;
           Commod.close m;
           tally.writes <- tally.writes + 1;
           loop (k + 1)
         in
         loop 0));
  single ?timers c tally

(* --- par_2shard --- *)

(* Every barrier epoch spawns and joins worker domains, and on a shared VM
   that host latency jitters. A 20 ms quantum keeps it to a small share of
   the host time, so the figure follows the shards' own work; at 5 ms it
   is about half and the run-to-run spread doubles. *)
let par_quantum = 20_000
let token_every = 10

let par_build ~seed ~timers ~workers =
  let p =
    World.Par.create ~quantum:par_quantum
      { World.Config.default with World.Config.seed; domains = 2 }
  in
  let n = World.Par.shard_count p in
  let tallies = Array.init n (fun _ -> tally ()) in
  let clusters =
    Array.init n (fun i ->
        let c =
          Cluster.build ~world:(World.Par.shard p i)
            ~nets:[ ("ether", Net.Tcp_lan); ("ring", Net.Mbx_ring) ]
            ~machines:
              [
                ("vax1", Machine.Vax, [ "ether" ]);
                ("bridge", Machine.Sun3, [ "ether"; "ring" ]);
                ("ap1", Machine.Apollo, [ "ring" ]);
                ("sun1", Machine.Sun3, [ "ether" ]);
              ]
            ~gateways:[ ("bridge-gw", "bridge", [ "ether"; "ring" ]) ]
            ~ns:"vax1" ()
        in
        let out = World.Par.chan p ~src:i ~dst:((i + 1) mod n) ~latency:par_quantum in
        let dst = World.Par.shard p ((i + 1) mod n) in
        Ntcs_sim.Barrier.Chan.set_handler out (fun k ->
            World.record dst ~cat:"par.token" ~actor:"bench" (string_of_int k));
        (* The boundary timers are plain host-side buffers: only shard 0's
           processes push to them, so shards on other domains never race. *)
        let timers = if i = 0 then timers else None in
        let tally = tallies.(i) in
        ignore
          (Cluster.spawn c ~machine:"ap1" ~name:"echo" (echo_server ?timers ~tally ~name:"echo"));
        ignore
          (Cluster.spawn c ~machine:"sun1" ~name:"client"
             (rpc_client ?timers ~tally ~payload:(payload_of_seed seed)
                ~after_call:(fun k ->
                  if k mod token_every = 0 then Ntcs_sim.Barrier.Chan.send out k)));
        c)
  in
  let events () = Array.fold_left ( + ) 0 (World.Par.events_per_shard p) in
  (* One quantum of virtual time. Par.run hides the shard schedulers'
     steps, so the traced run charges each slice's host time evenly to its
     events. *)
  let advance () =
    let until = World.now (World.Par.shard p 0) + par_quantum in
    match timers with
    | None ->
      World.Par.run ~until ~workers p;
      true
    | Some tm ->
      let e0 = events () in
      let t0 = Probe.clock_ns () in
      World.Par.run ~until ~workers p;
      let dt = Probe.clock_ns () - t0 in
      let de = events () - e0 in
      if de > 0 then Probe.Ibuf.push tm.Probe.step_ns (dt / de);
      true
  in
  { clusters; tallies; advance; par = Some p }

let all =
  [
    { name = "rpc_1gw"; warm = 1_000; window = 10_000; build = rpc_build ~hetero:false };
    { name = "rpc_3gw_hetero"; warm = 1_000; window = 10_000; build = rpc_build ~hetero:true };
    { name = "naming_churn"; warm = 2_000; window = 10_000; build = naming_build };
    { name = "par_2shard"; warm = 1_000; window = 10_000; build = par_build };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
