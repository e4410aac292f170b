(* The golden determinism property: the same seed must reproduce the same
   simulation, byte for byte. Runs the full two-net URSA workload (deploy,
   a cross-gateway search, a document fetch) twice and compares the entire
   event trace and metrics dump; then feeds the trace to the R3 invariant
   checker, which must stay silent on a healthy run. *)

open Ntcs
open Helpers

let run_once seed =
  let c = two_net_cluster ~seed () in
  Cluster.settle c;
  let corpus = Ursa.Corpus.generate 30 in
  Ursa.Host.deploy c ~machines:[ "ap1"; "ap2" ] ~partitions:2 ~corpus
    ~search_machine:"vax1";
  Cluster.settle ~dt:5_000_000 c;
  let reply = ref None and fetched = ref None in
  ignore
    (Cluster.spawn c ~machine:"ap2" ~name:"user" (fun node ->
         let commod = bind_exn node ~name:"user" in
         let host = Ursa.Host.create commod in
         reply := Some (check_ok "search" (Ursa.Host.search ~k:5 host "gateway routing circuit"));
         fetched := Some (check_ok "fetch" (Ursa.Host.fetch host ~doc:3))));
  Cluster.settle ~dt:30_000_000 c;
  (match !reply with
   | Some r -> Alcotest.(check bool) "search found hits" true (r.Ursa.Ursa_msg.sr_hits <> [])
   | None -> Alcotest.fail "no search reply");
  (match !fetched with
   | Some _ -> ()
   | None -> Alcotest.fail "no fetch reply");
  let trace_txt = Fmt.str "%a" Ntcs_sim.Trace.dump (Ntcs_sim.World.trace (Cluster.world c)) in
  let metrics_txt = Fmt.str "%a" Ntcs_obs.Registry.pp_stats (Cluster.obs c) in
  let entries = Ntcs_sim.Trace.entries (Ntcs_sim.World.trace (Cluster.world c)) in
  let recursion_limit = (Cluster.config c).Node.recursion_limit in
  let spans_txt = Ntcs_obs.Export.spans_jsonl (Cluster.obs c) in
  (trace_txt, metrics_txt, entries, recursion_limit, spans_txt)

(* Byte equality, but fail with the first differing line instead of dumping
   two full traces at each other. *)
let check_same label a b =
  if not (String.equal a b) then begin
    let la = String.split_on_char '\n' a and lb = String.split_on_char '\n' b in
    let rec first_diff i = function
      | x :: xs, y :: ys -> if String.equal x y then first_diff (i + 1) (xs, ys) else (i, x, y)
      | x :: _, [] -> (i, x, "<missing>")
      | [], y :: _ -> (i, "<missing>", y)
      | [], [] -> (i, "<equal?>", "<equal?>")
    in
    let i, x, y = first_diff 1 (la, lb) in
    Alcotest.failf "%s: runs diverge at line %d:@.  run1: %s@.  run2: %s" label i x y
  end

let test_trace_identical () =
  let t1, m1, _, _, _ = run_once 42 in
  let t2, m2, _, _, _ = run_once 42 in
  check_same "trace" t1 t2;
  check_same "metrics" m1 m2;
  Alcotest.(check bool) "trace is non-trivial" true
    (List.length (String.split_on_char '\n' t1) > 50)

(* The same workload under an armed fault plane: delaying and duplicating
   links plus a crash/restart of an idle machine. Injections draw from the
   plane's seeded stream, so the whole faulty run — injections included —
   must still be byte-reproducible. *)
let faulty_cluster seed =
  let config =
    {
      Ntcs_sim.World.Config.default with
      Ntcs_sim.World.Config.seed;
      faults =
        Some
          {
            Ntcs_sim.Faults.seed = 13;
            rules =
              [
                Ntcs_sim.Faults.rule ~from_us:4_000_000 ~dup:0.1 ~delay:0.3
                  ~delay_us:25_000 ();
              ];
            schedule =
              [
                (5_000_000, Ntcs_sim.Faults.Crash "ap1");
                (7_000_000, Ntcs_sim.Faults.Restart "ap1");
              ];
          };
    }
  in
  let c = two_net_cluster ~config () in
  Cluster.settle c;
  spawn_echo c ~machine:"ap2" ~name:"svc";
  Cluster.settle c;
  let got = ref None in
  ignore
    (Cluster.spawn c ~machine:"vax1" ~name:"user" (fun node ->
         let commod = bind_exn node ~name:"user" in
         let addr = check_ok "locate" (Ali_layer.locate commod "svc") in
         Ntcs_sim.Sched.sleep (Node.sched node) 4_000_000;
         got := Some (check_ok "faulty echo" (Ali_layer.send_sync commod ~dst:addr (raw "f")))));
  Cluster.settle ~dt:20_000_000 c;
  (match !got with
   | Some env -> Alcotest.(check string) "echo under faults" "echo:f" (body env)
   | None -> Alcotest.fail "no faulty echo");
  c

let run_once_faulty seed =
  let c = faulty_cluster seed in
  let trace_txt = Fmt.str "%a" Ntcs_sim.Trace.dump (Ntcs_sim.World.trace (Cluster.world c)) in
  let metrics_txt = Fmt.str "%a" Ntcs_obs.Registry.pp_stats (Cluster.obs c) in
  let entries = Ntcs_sim.Trace.entries (Ntcs_sim.World.trace (Cluster.world c)) in
  (trace_txt, metrics_txt, entries)

let test_faulty_trace_identical () =
  let t1, m1, entries = run_once_faulty 42 in
  let t2, m2, _ = run_once_faulty 42 in
  check_same "faulty trace" t1 t2;
  check_same "faulty metrics" m1 m2;
  let injected cat = List.exists (fun e -> e.Ntcs_sim.Trace.cat = cat) entries in
  Alcotest.(check bool) "crash fired" true (injected "fault.crash");
  Alcotest.(check bool) "restart fired" true (injected "fault.restart");
  Alcotest.(check bool) "frame faults fired" true
    (injected "fault.dup" || injected "fault.delay")

let test_seed_matters () =
  (* Sanity that the comparison has teeth: a different seed must move
     something in the virtual timeline. *)
  let t1, _, _, _, _ = run_once 42 in
  let t2, _, _, _, _ = run_once 43 in
  Alcotest.(check bool) "different seeds diverge" false (String.equal t1 t2)

let test_r3_invariants_hold () =
  let _, _, entries, recursion_limit, _ = run_once 42 in
  Alcotest.(check bool) "trace saw the gateway work" true
    (List.exists (fun e -> e.Ntcs_sim.Trace.cat = "gw.forward") entries);
  Alcotest.(check bool) "trace saw conversion decisions" true
    (List.exists (fun e -> e.Ntcs_sim.Trace.cat = "ip.convert") entries);
  Alcotest.(check bool) "trace saw recursion depth marks" true
    (List.exists (fun e -> e.Ntcs_sim.Trace.cat = "lcm.depth") entries);
  match Check_invariants.check_all ~recursion_limit entries with
  | [] -> ()
  | vs ->
    Alcotest.failf "R3 violations on a healthy run:@.%s"
      (String.concat "\n" (List.map (Fmt.str "%a" Check_invariants.pp_violation) vs))

(* Rendered telemetry pinned across code changes, not only run against run:
   any change to a trace line or span detail fails here. A change in how
   many processes a ComMod spawns moves them too (TAdds carry a pid), so
   such a change re-captures them only after the canonical digests below
   still pass unmodified. The second run crosses three gateways between a
   Sun and a VAX over TCP LANs and MBX rings, so its frames travel in
   packed mode with hop counts up to 3. *)
let run_hetero seed =
  let c =
    Cluster.build ~seed
      ~nets:
        [
          ("lan0", Ntcs_sim.Net.Tcp_lan);
          ("ring1", Ntcs_sim.Net.Mbx_ring);
          ("lan2", Ntcs_sim.Net.Tcp_lan);
          ("ring3", Ntcs_sim.Net.Mbx_ring);
        ]
      ~machines:
        [
          ("ns-m", Ntcs_sim.Machine.Vax, [ "lan0" ]);
          ("client-m", Ntcs_sim.Machine.Sun3, [ "lan0" ]);
          ("gw-m0", Ntcs_sim.Machine.Sun3, [ "lan0"; "ring1" ]);
          ("gw-m1", Ntcs_sim.Machine.Apollo, [ "ring1"; "lan2" ]);
          ("gw-m2", Ntcs_sim.Machine.Sun3, [ "lan2"; "ring3" ]);
          ("srv-m", Ntcs_sim.Machine.Vax, [ "ring3" ]);
        ]
      ~gateways:
        [
          ("gw0", "gw-m0", [ "lan0"; "ring1" ]);
          ("gw1", "gw-m1", [ "ring1"; "lan2" ]);
          ("gw2", "gw-m2", [ "lan2"; "ring3" ]);
        ]
      ~ns:"ns-m" ()
  in
  Cluster.settle c;
  spawn_echo c ~machine:"srv-m" ~name:"echo";
  Cluster.settle c;
  let replies = ref 0 in
  ignore
    (Cluster.spawn c ~machine:"client-m" ~name:"client" (fun node ->
         let commod = bind_exn node ~name:"client" in
         let dst = check_ok "locate" (Ali_layer.locate commod "echo") in
         for i = 1 to 5 do
           let msg = "m" ^ string_of_int i in
           let env = check_ok "hetero echo" (Ali_layer.send_sync commod ~dst (raw msg)) in
           Alcotest.(check string) "echo" ("echo:" ^ msg) (body env);
           incr replies
         done));
  Cluster.settle ~dt:10_000_000 c;
  Alcotest.(check int) "all replies" 5 !replies;
  let entries = Ntcs_sim.Trace.entries (Ntcs_sim.World.trace (Cluster.world c)) in
  Alcotest.(check bool) "packed mode on the wire" true
    (List.exists
       (fun e ->
         match e.Ntcs_sim.Trace.event with
         | Trace_event.Ip_convert { mode = Ntcs_wire.Convert.Packed; _ } -> true
         | _ -> false)
       entries);
  (* A chain through three gateways is where peering and conversion
     mistakes would show. *)
  Alcotest.(check (list string)) "R3 invariants over three gateways" []
    (List.map (Fmt.str "%a" Check_invariants.pp_violation)
       (Check_invariants.check_all entries));
  ( Fmt.str "%a" Ntcs_sim.Trace.dump (Ntcs_sim.World.trace (Cluster.world c)),
    Ntcs_obs.Export.spans_jsonl (Cluster.obs c) )

(* The sharded naming plane (DESIGN.md §15): four shard servers and NSP
   lookup caches. A client stores and hits a name and an address, a
   deregistration on the same shard bumps its generation, the next answer
   from that shard raises the client's floor (the cached name goes stale
   and is stored again), and a lookup planted on a non-owner is forwarded
   one hop to the owner. *)
let run_sharded seed =
  let on_shard s prefix =
    let rec pick i =
      let n = prefix ^ string_of_int i in
      if Ntcs_naming.Shard_map.hash_name n mod 4 = s then n else pick (i + 1)
    in
    pick 0
  in
  let c =
    Cluster.build ~seed
      ~config:
        {
          Ntcs_sim.World.Config.default with
          Ntcs_sim.World.Config.naming =
            { Ntcs_sim.World.Config.shards = 4; cache_capacity = 64 };
        }
      ~nets:[ ("ether", Ntcs_sim.Net.Tcp_lan) ]
      ~machines:
        [
          ("vax1", Ntcs_sim.Machine.Vax, [ "ether" ]);
          ("sun1", Ntcs_sim.Machine.Sun3, [ "ether" ]);
          ("sun2", Ntcs_sim.Machine.Sun3, [ "ether" ]);
          ("ap1", Ntcs_sim.Machine.Apollo, [ "ether" ]);
        ]
      ~ns:"vax1" ~ns_replicas:[ "sun1"; "sun2" ] ()
  in
  Cluster.settle ~dt:12_000_000 c;
  let svc = on_shard 2 "svc" and peer = on_shard 2 "peer" and tmp = on_shard 2 "tmp" in
  spawn_echo c ~machine:"ap1" ~name:svc;
  spawn_echo c ~machine:"ap1" ~name:peer;
  Cluster.settle ~dt:6_000_000 c;
  let finished = ref false in
  ignore
    (Cluster.spawn c ~machine:"sun2" ~name:"client" (fun node ->
         let commod = bind_exn node ~name:"client" in
         let addr = check_ok "locate" (Ali_layer.locate commod svc) in
         ignore (check_ok "cached locate" (Ali_layer.locate commod svc));
         ignore (check_ok "entry" (Ali_layer.locate_entry commod addr));
         ignore (check_ok "cached entry" (Ali_layer.locate_entry commod addr));
         Ntcs_sim.Sched.sleep (Node.sched node) 4_000_000;
         ignore (check_ok "floor raise" (Ali_layer.locate commod peer));
         ignore (check_ok "stale locate" (Ali_layer.locate commod svc));
         ignore (check_ok "fresh locate" (Ali_layer.locate commod svc));
         let routed =
           Lcm_layer.send_sync (Commod.lcm commod)
             ~dst:(Addr.unique ~server_id:0 ~value:0)
             ~app_tag:Ns_proto.app_tag
             (Ntcs_wire.Convert.payload_raw
                (Ns_proto.pack_request (Ns_proto.Lookup_v (svc, 0))))
         in
         ignore (check_ok "routed lookup" routed);
         finished := true));
  Cluster.settle ~dt:2_000_000 c;
  ignore
    (Cluster.spawn c ~machine:"ap1" ~name:"tmp" (fun node ->
         Commod.close (bind_exn node ~name:tmp)));
  Cluster.settle ~dt:10_000_000 c;
  Alcotest.(check bool) "sharded workload completed" true !finished;
  ( Fmt.str "%a" Ntcs_sim.Trace.dump (Ntcs_sim.World.trace (Cluster.world c)),
    Ntcs_obs.Export.spans_jsonl (Cluster.obs c) )

let check_digest label want text =
  Alcotest.(check string) label want (Digest.to_hex (Digest.string text))

let test_rendered_golden () =
  let trace, _, _, _, spans = run_once 42 in
  check_digest "run_once 42 trace" "aee4d19d017c0d5b382054665777d1eb" trace;
  check_digest "run_once 42 spans" "1c831eb4fefbaa03621289ec9b430ea6" spans;
  let trace, spans = run_hetero 42 in
  check_digest "3-gateway hetero trace" "790a44be9bcabda4066381eff53927aa" trace;
  check_digest "3-gateway hetero spans" "eeff3523e80b85d7c746e93935cef869" spans;
  let trace, spans = run_sharded 42 in
  check_digest "sharded naming trace" "fa63846ca478cc1df8fd02518d30772d" trace;
  check_digest "sharded naming spans" "abf46922568bee70b120e90a8c5787c7" spans

(* The same runs pinned in a canonical form that is blind to two things a
   change in process structure may legitimately move: a TAdd's assigner is
   the pid of the process that created its ND-layer, so spawning fewer
   processes renumbers every [T<assigner>.<value>] to [T?.<value>]; and
   entries logged at the same virtual instant by different processes may
   come out in another order, so each instant's lines are sorted. Anything
   else — a timestamp, a value, a line gained or lost — still fails. *)
let erase_tadd_assigners line =
  let b = Buffer.create (String.length line) in
  let n = String.length line in
  let is_digit c = c >= '0' && c <= '9' in
  let is_word c = is_digit c || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' in
  let rec go i =
    if i < n then begin
      let c = line.[i] in
      let j = ref (i + 1) in
      while !j < n && is_digit line.[!j] do incr j done;
      if c = 'T' && (i = 0 || not (is_word line.[i - 1])) && !j > i + 1
         && !j + 1 < n && line.[!j] = '.' && is_digit line.[!j + 1]
      then begin
        Buffer.add_string b "T?";
        go !j
      end
      else begin
        Buffer.add_char b c;
        go (i + 1)
      end
    end
  in
  go 0;
  Buffer.contents b

(* Both logs are in virtual-time order, so sorting on (instant, line)
   reorders lines only within an instant. *)
let canonical ~instant text =
  String.split_on_char '\n' text
  |> List.filter (fun l -> l <> "")
  |> List.map (fun l -> (instant l, erase_tadd_assigners l))
  |> List.sort compare
  |> List.map (fun (_, l) -> l ^ "\n")
  |> String.concat ""

let canonical_trace = canonical ~instant:(fun l -> Scanf.sscanf l "[ %dus]" Fun.id)
let canonical_spans = canonical ~instant:(fun l -> Scanf.sscanf l "{\"ts\":%d" Fun.id)

let test_canonical_golden () =
  let trace, _, _, _, spans = run_once 42 in
  check_digest "run_once 42 trace" "b42e7ea0c28f03bf8c8e46c1de69d7b3" (canonical_trace trace);
  check_digest "run_once 42 spans" "d217800bdec3bd104fafb2777cf80c33" (canonical_spans spans);
  let trace, spans = run_hetero 42 in
  check_digest "3-gateway hetero trace" "488972edd346205ba320d15e6c0ddd67" (canonical_trace trace);
  check_digest "3-gateway hetero spans" "c2ac929a7143db275e40a4027be28a72" (canonical_spans spans);
  let trace, spans = run_sharded 42 in
  check_digest "sharded naming trace" "6981c936605cf691c26780d4cc20129f" (canonical_trace trace);
  check_digest "sharded naming spans" "b5e6fac7499c24a040e38408b26d64dc" (canonical_spans spans);
  let c = faulty_cluster 42 in
  check_digest "faulty trace" "79c3618ad5bd92ff6ded329507828210"
    (canonical_trace (Fmt.str "%a" Ntcs_sim.Trace.dump (Ntcs_sim.World.trace (Cluster.world c))));
  check_digest "faulty spans" "ada0d8a052020975c09fa014816f968f"
    (canonical_spans (Ntcs_obs.Export.spans_jsonl (Cluster.obs c)))

(* One sample of every typed trace event and the text the Printf-based
   emitters wrote for it, captured from traces of the same exchanges
   (the local-close line from its format string, which no captured run
   reached). A typed event's category is a string in Trace_event, not a
   [~cat:"..."] literal, so lint R4 cannot see it: the manifest check is
   here. *)
let test_typed_event_texts () =
  let module Ev = Trace_event in
  let u s v = Addr.unique ~server_id:s ~value:v in
  let tmp s v = Addr.temporary ~assigner:s ~value:v in
  let route in_net in_label out_net out_label = { Ev.in_net; in_label; out_net; out_label } in
  let span c s = Ntcs_obs.Span.make ~circuit:c ~seq:s in
  let conv ?(forced = false) mode local remote dst =
    Ev.Ip_convert { mode; local; remote; dst; forced }
  in
  let open Ntcs_wire in
  let samples =
    [
      (Ev.Ip_ivc_open_sent { label = 1; dst = u 0 0 }, "label 1 to U0.0");
      (Ev.Ip_ivc_open { dst = u 0 0; hops = 1; label = 1 }, "to U0.0 via 1 hop(s) label 1");
      (Ev.Ip_ivc_accept { peer = tmp 1 2; label = 2 }, "from T1.2 label 2");
      (Ev.Ip_ivc_reject { label = 5 }, "label 5");
      ( Ev.Ip_ivc_close { label = 4; peer = u 0 2; side = Ev.Remote },
        "label 4 peer U0.2 remote" );
      ( Ev.Ip_ivc_close { label = 7; peer = u 0 1; side = Ev.Local "forget" },
        "label 7 peer U0.1 local reason=forget" );
      ( conv Convert.Packed Endian.Be Endian.Le (u 0 0),
        "mode=packed local=be remote=le dst=U0.0" );
      ( conv Convert.Image Endian.Be Endian.Be (u 0 1),
        "mode=image local=be remote=be dst=U0.1" );
      ( conv ~forced:true Convert.Packed Endian.Be Endian.Le (u 0 0),
        "mode=packed local=be remote=le dst=U0.0 forced" );
      ( Ev.Nd_open { peer = u 0 0; phys = Ntcs_ipcs.Phys_addr.tcp ~host:"vax1" ~port:4000 },
        "U0.0 at tcp://vax1:4000" );
      ( Ev.Gw_splice { route = route 2 1 1 2; dst = u 0 0 },
        "net2 label 1 <-> net1 label 2 dst=U0.0" );
      ( Ev.Gw_forward
          { route = route 2 1 1 2; kind = Proto.Data; dst = u 0 0; span = span 1 1 },
        "net2 label 1 -> net1 label 2 kind=data dst=U0.0 span=c1#1" );
      ( Ev.Gw_forward
          { route = route 1 2 2 1; kind = Proto.Ivc_accept; dst = tmp 9 1; span = span 0 0 },
        "net1 label 2 -> net2 label 1 kind=ivc-accept dst=T9.1 span=c0#0" );
      (Ev.Gw_close (route 1 3 2 4), "net1 label 3 <-> net2 label 4");
      (Ev.Gw_addr (u 900 1), "U900.1");
      (Ev.Lcm_depth 1, "1");
      (Ev.Ns_cache_hit { key = Ev.Name "svc"; shard = 1; gen = 1 }, "name:svc shard 1 gen 1");
      ( Ev.Ns_cache_stale { key = Ev.Name "svc3"; shard = 2; gen = 1 },
        "name:svc3 shard 2 gen 1" );
      ( Ev.Ns_cache_store { key = Ev.Address (u 1 1); shard = 1; gen = 0 },
        "addr:U1.1 shard 1 gen 0" );
      ( Ev.Ns_cache_invalidate
          { cause = Ev.Floor_raised { shard = 1; floor = 1 }; dropped = 0 },
        "shard 1 floor 1 dropped 0" );
      ( Ev.Ns_cache_invalidate { cause = Ev.Spliced (u 1 1); dropped = 1 },
        "splice addr:U1.1 dropped 1" );
      ( Ev.Ns_shard_forward { name = "svc2"; from_shard = 0; to_shard = 1; hop = 1 },
        "svc2: shard 0 -> 1 hop 1" );
    ]
  in
  List.iter
    (fun (ev, text) ->
      let cat = Ev.cat ev in
      let e = { Ntcs_sim.Trace.at_us = 0; cat; actor = "a"; event = ev } in
      Alcotest.(check string) cat text (Ntcs_sim.Trace.detail e);
      Alcotest.(check bool) (cat ^ " is in the manifest") true (Ntcs_obs.Manifest.known cat))
    samples;
  Alcotest.(check int) "one sample category per typed constructor" 17
    (List.length (List.sort_uniq compare (List.map (fun (ev, _) -> Ev.cat ev) samples)));
  let splice = fst (List.nth samples 10) in
  let line =
    { Ntcs_sim.Trace.at_us = 2102188; cat = "gw.splice"; actor = "bridge-gw"; event = splice }
  in
  Alcotest.(check string) "rendered trace line"
    "[ 2102188us] gw.splice        bridge-gw            net2 label 1 <-> net1 label 2 dst=U0.0"
    (Fmt.str "%a" Ntcs_sim.Trace.pp_entry line)

let () =
  Alcotest.run "determinism"
    [
      ( "golden",
        [
          Alcotest.test_case "same seed, same bytes" `Quick test_trace_identical;
          Alcotest.test_case "same seed, same faulty bytes" `Quick test_faulty_trace_identical;
          Alcotest.test_case "different seed differs" `Quick test_seed_matters;
          Alcotest.test_case "R3 invariants hold" `Quick test_r3_invariants_hold;
          Alcotest.test_case "rendered telemetry digests" `Quick test_rendered_golden;
          Alcotest.test_case "canonical telemetry digests" `Quick test_canonical_golden;
          Alcotest.test_case "typed event texts" `Quick test_typed_event_texts;
        ] );
    ]
