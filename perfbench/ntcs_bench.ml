(* The NTCS benchmark's main program: see run.py for the command line contract.

   One run of one workload repeats a fixed measurement until its time
   budget is spent: build a fresh installation from the seed, drive it
   until the first op succeeds (set-up), warm up, then time a window of a
   fixed number of ops. Each repeat of a seed is the same simulation, so
   its simulated fields must come out identical — the run checks that —
   while host timings vary; those are reported as medians over repeats.

   --trace 0 prints the end-to-end metrics of untraced repeats (the
   shipped World.Config with its built-in trace and span log, as users
   get them). --trace 1 alternates untraced repeats with traced ones that
   arm the bench's own boundary timers, and prints the per-layer metrics:
   counters, histograms and span-log figures read from the program's
   registry after the window, the timers, and kernels timed directly. *)

open Ntcs
module Sched = Ntcs_sim.Sched
module World = Ntcs_sim.World
module Registry = Ntcs_obs.Registry
module Histo = Ntcs_obs.Histo
module Span = Ntcs_obs.Span
module W = Workloads

(* ---------------------------------------------------------------- *)
(* One repeat                                                        *)

(* Counters read before and after the window; per-op figures are deltas. *)
let window_counters =
  [
    "net.frames"; "net.bytes"; "nd.frames_sent"; "lcm.sync_sends"; "lcm.retries";
    "nsp.cache_hits"; "nsp.cache_misses"; "nsp.cache_stale"; "nsp.requests";
    "nsp.cache_invalidations"; "ns.lookups"; "ns.shard.forwards"; "ns.invalidations";
    "gw.forwards"; "pool.hits"; "pool.misses"; "conv.packed_msgs"; "conv.image_msgs";
  ]

(* Histograms whose sum is a byte count: deltas of the sum. *)
let window_histo_sums = [ "nd.tx_bytes"; "frame.bytes_copied" ]

type snap = {
  s_counters : (string * int) list;
  s_events : int;
  s_spans : int array;  (** per world *)
  s_trace : int;
  s_epochs : int;
  s_cross : int;
  s_lat : int array;  (** per world: latency samples so far *)
}

let worlds (inst : W.inst) = Array.map Cluster.world inst.W.clusters
let regs inst = Array.map World.obs (worlds inst)
let sum_worlds inst f = Array.fold_left (fun acc w -> acc + f w) 0 (worlds inst)

let snapshot (inst : W.inst) =
  let rs = regs inst in
  let get f = Array.fold_left (fun acc r -> acc + f r) 0 rs in
  {
    s_counters =
      List.map (fun n -> (n, get (fun r -> Registry.get r n))) window_counters
      @ List.map (fun n -> (n, get (fun r -> Histo.sum (Registry.histo r n)))) window_histo_sums;
    s_events = sum_worlds inst (fun w -> Sched.events_executed (World.sched w));
    s_spans = Array.map Registry.span_count rs;
    s_trace = sum_worlds inst (fun w -> Ntcs_sim.Trace.count (World.trace w));
    s_epochs = (match inst.W.par with Some p -> World.Par.epochs p | None -> 0);
    s_cross = (match inst.W.par with Some p -> World.Par.messages_exchanged p | None -> 0);
    s_lat = Array.map (fun t -> Probe.Ibuf.length t.W.lat_vus) inst.W.tallies;
  }

let delta s0 s1 name = List.assoc name s1.s_counters - List.assoc name s0.s_counters

type repeat = {
  r_ops : int;  (** successful ops in the window *)
  r_attempts : int;
  r_failed : int;
  r_wrong : int;
  r_wall_s : float;
  r_setup_s : float;
  r_speed : float;  (** host speed during the repeat, see Probe.Cal *)
  r_setup_vus : int;
  r_words_per_op : float;
  r_live_per_op : float;
  r_lat_p50 : float;
  r_lat_p99 : float;
  r_fingerprint : string;  (** every simulated field, for the determinism check *)
  r_layers : (string * string * float) list;
      (** per-layer figures of a traced repeat: name, unit, value *)
}

(* Sum of a tally field over the worlds. Allocation-free: it runs on
   every step of the measured loop. *)
let sum (inst : W.inst) f =
  let acc = ref 0 in
  for i = 0 to Array.length inst.W.tallies - 1 do
    acc := !acc + f inst.W.tallies.(i)
  done;
  !acc

let ok inst = sum inst (fun t -> t.W.ok)
let failed inst = sum inst (fun t -> t.W.failed)
let wrong inst = sum inst (fun t -> t.W.wrong)
let writes inst = sum inst (fun t -> t.W.writes)
let attempts inst = sum inst (fun t -> t.W.ok + t.W.failed + t.W.wrong)

(* Run until [pred] holds. A world that goes idle before it does, or one
   that spends an hour of virtual time without getting there, is a broken
   run, not a slow one. *)
let virtual_limit_us = 3_600_000_000

let drive (inst : W.inst) pred =
  let w = Cluster.world inst.W.clusters.(0) in
  while not (pred ()) do
    if not (inst.W.advance ()) then failwith "the simulated world went idle";
    if World.now w > virtual_limit_us then failwith "no progress within the virtual time limit"
  done

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* Span-log figures over the window: ND wire time (each nd.rx paired with
   the oldest unmatched nd.tx of the same span context) and gateway dwell
   (gw.forward minus the nd.rx that brought the frame in). *)
let span_figures events =
  let pending = Hashtbl.create 1024 in
  let last_rx = Hashtbl.create 1024 in
  let wire = Probe.Ibuf.create () in
  let dwell = Probe.Ibuf.create () in
  List.iter
    (fun (e : Span.event) ->
      let key = (e.Span.ev_ctx.Span.sp_circuit, e.Span.ev_ctx.Span.sp_seq) in
      match e.Span.ev_name with
      | "nd.tx" ->
        let q =
          match Hashtbl.find_opt pending key with
          | Some q -> q
          | None ->
            let q = Queue.create () in
            Hashtbl.replace pending key q;
            q
        in
        Queue.push e.Span.ev_at_us q
      | "nd.rx" ->
        Hashtbl.replace last_rx key e.Span.ev_at_us;
        (match Hashtbl.find_opt pending key with
         | Some q when not (Queue.is_empty q) ->
           Probe.Ibuf.push wire (e.Span.ev_at_us - Queue.pop q)
         | Some _ | None -> ())
      | "gw.forward" -> (
        match Hashtbl.find_opt last_rx key with
        | Some t -> Probe.Ibuf.push dwell (e.Span.ev_at_us - t)
        | None -> ())
      | _ -> ())
    events;
  let p50 b = Probe.quantile (Probe.Ibuf.sorted_from b 0) 50. in
  (p50 wire, p50 dwell)

let rec drop n = function _ :: tl when n > 0 -> drop (n - 1) tl | l -> l

let merged_histo inst name =
  Array.fold_left (fun acc r -> Histo.merge acc (Registry.histo r name)) (Histo.create ())
    (regs inst)

let nd_circuits_open (inst : W.inst) =
  let app = List.concat_map (fun t -> t.W.commods) (Array.to_list inst.W.tallies) in
  let gws =
    List.concat_map
      (fun c ->
        List.concat_map (fun g -> List.map snd (Gateway.commods g)) (Cluster.gateway_list c))
      (Array.to_list inst.W.clusters)
  in
  List.fold_left (fun acc cm -> acc + Nd_layer.circuit_count (Commod.nd cm)) 0 (app @ gws)

(* Per-layer figures of one traced window. *)
let layer_figures (inst : W.inst) ~s0 ~s1 ~ops ~writes ~(timers : Probe.timers) =
  let d = delta s0 s1 in
  let h name = merged_histo inst name in
  let spans =
    Array.to_list (regs inst)
    |> List.mapi (fun i r -> drop s0.s_spans.(i) (Registry.spans r))
    |> List.concat
  in
  let wire_p50, dwell_p50 = span_figures spans in
  let gauge name = Array.fold_left (fun acc r -> acc +. Registry.gauge r name) 0. (regs inst) in
  let tp ib p = Probe.quantile (Probe.Ibuf.sorted_from ib 0) p in
  let lookups = d "nsp.cache_hits" + d "nsp.cache_misses" + d "nsp.cache_stale" in
  let conv = d "conv.packed_msgs" + d "conv.image_msgs" in
  let pool = d "pool.hits" + d "pool.misses" in
  [
    ("sched.events_per_op", "count", ratio (s1.s_events - s0.s_events) ops);
    ("sched.step_host_ns_p50", "ns", tp timers.Probe.step_ns 50.);
    ("sched.step_host_ns_p99", "ns", tp timers.Probe.step_ns 99.);
    ("net.frames_per_op", "count", ratio (d "net.frames") ops);
    ("net.bytes_per_op", "B", ratio (d "net.bytes") ops);
    ("nd.frames_sent_per_op", "count", ratio (d "nd.frames_sent") ops);
    ("nd.tx_bytes_per_op", "B", ratio (d "nd.tx_bytes") ops);
    ("frame.bytes_copied_per_op", "B", ratio (d "frame.bytes_copied") ops);
    ("nd.circuits_open", "count", float_of_int (nd_circuits_open inst));
    ("nd.wire_virtual_us_p50", "us", wire_p50);
    ("ip.open_us_p50", "us", float_of_int (Histo.p50 (h "ip.open_us")));
    ("ip.packed_share", "ratio", ratio (d "conv.packed_msgs") conv);
    ("gw.forwards_per_op", "count", ratio (d "gw.forwards") ops);
    ( "gw.splices",
      "count",
      float_of_int
        (Array.fold_left
           (fun acc c ->
             List.fold_left (fun a g -> a + Gateway.splice_count g) acc (Cluster.gateway_list c))
           0 inst.W.clusters) );
    ("gw.dwell_virtual_us_p50", "us", dwell_p50);
    ("lcm.sync_sends_per_op", "count", ratio (d "lcm.sync_sends") ops);
    ("lcm.retries_per_op", "count", ratio (d "lcm.retries") ops);
    ( "lcm.addr_faults",
      "count",
      float_of_int
        (Array.fold_left (fun acc r -> acc + Registry.get r "lcm.addr_faults") 0 (regs inst)) );
    ("lcm.inbox_depth_p99", "count", float_of_int (Histo.p99 (h "lcm.inbox_depth")));
    ("lcm.send_sync_us_p50", "us", float_of_int (Histo.p50 (h "lcm.send_sync_us")));
    ("lcm.send_sync_us_p99", "us", float_of_int (Histo.p99 (h "lcm.send_sync_us")));
    ("ali.send_sync.host_ns_p50", "ns", tp timers.Probe.send_sync_ns 50.);
    ("ali.send_sync.host_ns_p99", "ns", tp timers.Probe.send_sync_ns 99.);
    ("ali.reply.host_ns_p50", "ns", tp timers.Probe.reply_ns 50.);
    ("ali.locate.host_ns_p50", "ns", tp timers.Probe.locate_ns 50.);
    ("ali.locate.host_ns_p99", "ns", tp timers.Probe.locate_ns 99.);
    ("commod.bind.host_ns", "ns", tp timers.Probe.bind_ns 50.);
    ("nsp.cache_hit_ratio", "ratio", ratio (d "nsp.cache_hits") lookups);
    ("nsp.stale_ratio", "ratio", ratio (d "nsp.cache_stale") lookups);
    ("nsp.requests_per_op", "count", ratio (d "nsp.requests") ops);
    ("nsp.request_us_p50", "us", float_of_int (Histo.p50 (h "nsp.request_us")));
    ("nsp.request_us_p99", "us", float_of_int (Histo.p99 (h "nsp.request_us")));
    ("nsp.cache_invalidations", "count", float_of_int (d "nsp.cache_invalidations"));
    ("ns.lookups_per_op", "count", ratio (d "ns.lookups") ops);
    ("ns.shard_forwards_per_op", "count", ratio (d "ns.shard.forwards") ops);
    ("ns.invalidations_per_write", "count", ratio (d "ns.invalidations") writes);
    ("pool.hit_ratio", "ratio", ratio (d "pool.hits") pool);
    ("pool.high_water", "count", gauge "pool.high_water");
    ("obs.span_events_per_op", "count", ratio (List.length spans) ops);
    ("trace.entries_per_op", "count", ratio (s1.s_trace - s0.s_trace) ops);
    ("par.epochs_per_op", "count", ratio (s1.s_epochs - s0.s_epochs) ops);
    ("par.cross_messages", "count", float_of_int (s1.s_cross - s0.s_cross));
  ]

let window_chunks = 10

let repeat (wl : W.t) ~seed ~timers ~workers =
  Gc.full_major ();
  let cal = Probe.Cal.create () in
  Probe.Cal.slice ~domains:workers cal;
  let t_build = Probe.clock_ns () in
  let inst = wl.W.build ~seed ~timers ~workers in
  (* Set-up ends at the first successful op. *)
  drive inst (fun () -> ok inst >= 1);
  let setup_ns = Probe.clock_ns () - t_build in
  let setup_vus =
    Array.fold_left
      (fun acc t -> if t.W.first_ok_vus >= 0 then min acc t.W.first_ok_vus else acc)
      max_int inst.W.tallies
  in
  Probe.Cal.slice ~domains:workers cal;
  drive inst (fun () -> attempts inst >= wl.W.warm);
  let live0 = Probe.live_bytes () in
  let s0 = snapshot inst in
  let failed0 = failed inst and wrong0 = wrong inst and writes0 = writes inst in
  let a0 = attempts inst and ok0 = ok inst in
  (* The window runs in chunks with a calibration slice before each, so
     the calibration tracks the host's speed through the window. Only the
     chunks are timed and their allocation counted. *)
  let busy_ns = ref 0 and words = ref 0. in
  for k = 1 to window_chunks do
    Probe.Cal.slice ~domains:workers cal;
    let w0 = (Gc.quick_stat ()).Gc.minor_words in
    let t0 = Probe.clock_ns () in
    drive inst (fun () -> attempts inst >= a0 + (wl.W.window * k / window_chunks));
    busy_ns := !busy_ns + (Probe.clock_ns () - t0);
    words := !words +. ((Gc.quick_stat ()).Gc.minor_words -. w0)
  done;
  Probe.Cal.slice ~domains:workers cal;
  let s1 = snapshot inst in
  let live1 = Probe.live_bytes () in
  let ops = ok inst - ok0 in
  let lat =
    Array.concat
      (Array.to_list
         (Array.mapi (fun i t -> Probe.Ibuf.sorted_from t.W.lat_vus s0.s_lat.(i)) inst.W.tallies))
  in
  Array.sort compare lat;
  let d = delta s0 s1 in
  let fingerprint =
    Printf.sprintf "ops=%d setup_vus=%d p50=%.17g p99=%.17g events=%d net_bytes=%d hits=%d fwd=%d"
      ops setup_vus (Probe.quantile lat 50.) (Probe.quantile lat 99.)
      (s1.s_events - s0.s_events) (d "net.bytes") (d "nsp.cache_hits") (d "gw.forwards")
  in
  {
    r_ops = ops;
    r_attempts = attempts inst - a0;
    r_failed = failed inst - failed0;
    r_wrong = wrong inst - wrong0;
    r_wall_s = float_of_int !busy_ns /. 1e9;
    r_setup_s = float_of_int setup_ns /. 1e9;
    r_speed = Probe.Cal.speed cal;
    r_setup_vus = setup_vus;
    r_words_per_op = !words /. float_of_int (max 1 ops);
    r_live_per_op = (live1 -. live0) /. float_of_int (max 1 ops);
    r_lat_p50 = Probe.quantile lat 50.;
    r_lat_p99 = Probe.quantile lat 99.;
    r_fingerprint = fingerprint;
    r_layers =
      (match timers with
       | None -> []
       | Some timers -> layer_figures inst ~s0 ~s1 ~ops ~writes:(writes inst - writes0) ~timers);
  }

(* ---------------------------------------------------------------- *)
(* Kernels timed directly (traced runs only)                         *)

let kernels ~smoke =
  let kernel_ns f = if smoke then Probe.kernel_ns ~batches:3 ~batch:200 f else Probe.kernel_ns f in
  let open Ntcs_wire in
  let ns_cluster =
    Cluster.build
      ~nets:[ ("ether", Ntcs_sim.Net.Tcp_lan) ]
      ~machines:[ ("vax1", Ntcs_sim.Machine.Vax, [ "ether" ]) ]
      ~ns:"vax1" ()
  in
  let server = Cluster.primary_ns ns_cluster in
  let n = 10_000 in
  let names = Array.init n (Printf.sprintf "name-%07d") in
  Name_server.preload server (Array.to_list (Array.map (fun nm -> (nm, [])) names));
  let rng = Ntcs_util.Rng.create 0x5EED in
  let pick () = names.(Ntcs_util.Rng.int rng n) in
  let reqs = Array.init 4096 (fun _ -> Ns_proto.Lookup_v (pick (), 0)) in
  let qi = ref 0 in
  let handle () =
    qi := (!qi + 1) land 4095;
    ignore (Sys.opaque_identity (Name_server.handle_request server reqs.(!qi)))
  in
  let cache = Ntcs_naming.Ns_cache.create ~capacity:n ~nshards:4 in
  Array.iteri
    (fun i nm ->
      Ntcs_naming.Ns_cache.store cache nm ~value:i ~shard:(i land 3) ~gen:1 ~expiry:max_int)
    names;
  let keys = Array.init 4096 (fun _ -> pick ()) in
  let find () =
    qi := (!qi + 1) land 4095;
    ignore (Sys.opaque_identity (Ntcs_naming.Ns_cache.find cache ~now:0 keys.(!qi)))
  in
  let map = Ntcs_naming.Shard_map.make ~version:1 [| 0; 1; 2; 3 |] in
  let shard () =
    qi := (!qi + 1) land 4095;
    ignore (Sys.opaque_identity (Ntcs_naming.Shard_map.shard_of_name map keys.(!qi)))
  in
  let layout = W.message_layout and values = W.message_values 0 in
  let codec = Packed.of_layout layout in
  let run_pack () = ignore (Sys.opaque_identity (Packed.run_pack codec values)) in
  let encode () = ignore (Sys.opaque_identity (Layout.encode ~order:Endian.Be layout values)) in
  let payload = Bytes.make 256 'x' in
  let header =
    Proto.make_header ~kind:Proto.Data
      ~src:(Addr.unique ~server_id:1 ~value:7)
      ~dst:(Addr.unique ~server_id:2 ~value:9)
      ~ivc:3 ~payload_len:256 ()
  in
  let buf = Bytes.create (Proto.header_bytes + 256) in
  let encode_into () =
    ignore (Sys.opaque_identity (Proto.Frame.encode_into header ~payload buf ~off:0))
  in
  let view = Proto.Frame.of_parts header payload in
  let patch () =
    Proto.Frame.patch_ivc view 4;
    Proto.Frame.patch_hops view 1
  in
  let reg = Registry.create () in
  let incr () = Registry.incr reg "bench.counter" in
  let trace = Ntcs_sim.Trace.create () in
  let record () = Ntcs_sim.Trace.record trace ~at_us:0 ~cat:"bench.kernel" ~actor:"bench" "x" in
  [
    ("name_server.handle_request.host_ns", "ns", kernel_ns handle);
    ("ns_cache.find.host_ns", "ns", kernel_ns find);
    ("shard_map.shard_of_name.host_ns", "ns", kernel_ns shard);
    ("packed.run_pack.host_ns", "ns", kernel_ns run_pack);
    ("packed.run_pack.words", "words", Probe.words_per_call run_pack);
    ("layout.encode.host_ns", "ns", kernel_ns encode);
    ("proto.frame.encode_into.host_ns", "ns", kernel_ns encode_into);
    ("proto.frame.patch.host_ns", "ns", kernel_ns patch);
    ("registry.incr.host_ns", "ns", kernel_ns incr);
    ("trace.record.host_ns", "ns", kernel_ns record);
  ]

(* ---------------------------------------------------------------- *)
(* Reporting                                                         *)

let json_metric (name, unit, v) =
  if not (Float.is_finite v) then failwith (Printf.sprintf "metric %s is not finite" name);
  Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit

let emit ~correct ~attempted ~failed metrics =
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", " (List.map json_metric metrics))

(* ---------------------------------------------------------------- *)
(* Main                                                              *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let smoke = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring budget");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--smoke", Arg.Set smoke, " short windows, one repeat of each kind");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "ntcs_bench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]";
  let wl =
    match W.find !workload with
    | Some w -> if !smoke then { w with W.warm = 50; window = 300 } else w
    | None ->
      prerr_endline ("unknown workload: " ^ !workload);
      exit 2
  in
  let traced = !trace = 1 in
  let cores = Domain.recommended_domain_count () in
  let workers = if wl.W.name = "par_2shard" then min 2 cores else 1 in
  Printf.printf "# workload=%s seed=%d seconds=%g trace=%d host_cores=%d ocaml=%s workers=%d\n%!"
    wl.W.name !seed !seconds !trace cores Sys.ocaml_version workers;
  (* The schedule of repeats: untraced only, or untraced/traced in turn —
     and on par_2shard a single-worker untraced repeat as well, for the
     speed-up figure. *)
  let kinds =
    if not traced then [| `Plain |]
    else if wl.W.name = "par_2shard" && workers > 1 then [| `Plain; `Traced; `One_worker |]
    else [| `Plain; `Traced |]
  in
  let reps = Hashtbl.create 3 in
  let t_start = Unix.gettimeofday () in
  let i = ref 0 in
  while
    !i < Array.length kinds
    || ((not !smoke) && Unix.gettimeofday () -. t_start < !seconds)
  do
    let kind = kinds.(!i mod Array.length kinds) in
    let timers, w =
      match kind with
      | `Plain -> (None, workers)
      | `Traced -> (Some (Probe.timers ()), workers)
      | `One_worker -> (None, 1)
    in
    let r = repeat wl ~seed:!seed ~timers ~workers:w in
    Printf.printf
      "# repeat %d %s: %.0f ops/s raw, speed %.3f, setup %.4fs raw, %.1f words/op; %s\n%!" !i
      (match kind with `Plain -> "plain" | `Traced -> "traced" | `One_worker -> "1-worker")
      (float_of_int r.r_ops /. r.r_wall_s) r.r_speed r.r_setup_s r.r_words_per_op r.r_fingerprint;
    Hashtbl.replace reps kind (r :: (try Hashtbl.find reps kind with Not_found -> []));
    incr i
  done;
  let all = Hashtbl.fold (fun _ rs acc -> rs @ acc) reps [] in
  let plain = Hashtbl.find reps `Plain in
  let fingerprints = List.sort_uniq compare (List.map (fun r -> r.r_fingerprint) all) in
  let deterministic = List.length fingerprints = 1 in
  if not deterministic then
    List.iter (fun f -> Printf.printf "# NONDETERMINISTIC repeat: %s\n" f) fingerprints;
  let wrong = List.fold_left (fun acc r -> acc + r.r_wrong) 0 all in
  let attempted = List.fold_left (fun acc r -> acc + r.r_attempts) 0 all in
  let failed = List.fold_left (fun acc r -> acc + r.r_failed + r.r_wrong) 0 all in
  let med f rs = Probe.median (List.map f rs) in
  (* Host figures at nominal host speed (Probe.Cal), and as measured. *)
  let ops_per_s rs = med (fun r -> float_of_int r.r_ops /. r.r_wall_s /. r.r_speed) rs in
  let raw_ops_per_s rs = med (fun r -> float_of_int r.r_ops /. r.r_wall_s) rs in
  let r0 = List.hd plain in
  let metrics =
    if not traced then
      [
        ("ops_per_s", "1/s", ops_per_s plain);
        ("op_virtual_us_p50", "us", r0.r_lat_p50);
        ("op_virtual_us_p99", "us", r0.r_lat_p99);
        ("minor_words_per_op", "words", med (fun r -> r.r_words_per_op) plain);
        ("live_bytes_per_op", "B", med (fun r -> r.r_live_per_op) plain);
        ("setup_s", "s", med (fun r -> r.r_setup_s *. r.r_speed) plain);
        ("setup_virtual_us", "us", float_of_int r0.r_setup_vus);
      ]
    else begin
      let traced_reps = Hashtbl.find reps `Traced in
      (* Every traced repeat lists the same figures in the same order. *)
      let layer i = med (fun r -> match List.nth r.r_layers i with _, _, v -> v) traced_reps in
      (* Unscaled: the calibration itself differs between one and two
         domains. *)
      let speedup =
        match Hashtbl.find_opt reps `One_worker with
        | Some one -> raw_ops_per_s plain /. raw_ops_per_s one
        | None -> 1.
      in
      List.mapi (fun i (n, u, _) -> (n, u, layer i)) (List.hd traced_reps).r_layers
      @ [
          ("error_rate", "ratio", ratio failed attempted);
          ("ops_per_s.raw", "1/s", raw_ops_per_s plain);
          ("setup_s.raw", "s", med (fun r -> r.r_setup_s) plain);
          ("host.speed", "ratio", med (fun r -> r.r_speed) all);
          ("ops_per_s.traced", "1/s", ops_per_s traced_reps);
          ("tracing.overhead", "ratio", ops_per_s plain /. ops_per_s traced_reps);
          ("par.speedup_2w_vs_1w", "ratio", speedup);
        ]
      @ kernels ~smoke:!smoke
    end
  in
  emit ~correct:(deterministic && wrong = 0) ~attempted ~failed metrics
