(* The Logical Connection Maintenance layer (§2.2, §3.5).

   "Its primary function is to relocate modules which may have moved, and to
   recover from broken connections, though it also provides a connectionless
   protocol. No explicit open or close primitives are provided at the
   Nucleus interface; messages are simply sent/received directly to/from the
   desired destinations, with the underlying IVCs being established as
   needed."

   The address-fault path follows the paper exactly: a failed send closes
   the channel, the local forwarding-address table is consulted, then the
   fault handler asks the NSP-layer for a forwarding UAdd; a hit is entered
   in the forwarding table and the send proceeds "in exactly the same manner
   as during an initial connection". The §6.3 pathology — the fault handler
   recursing through the NSP when the broken circuit *is* the name server's —
   is reproduced verbatim, together with the paper's patch (the LCM
   special-cases the name server's address, "although it also should not
   know of the Name Server"); [Node.config.ns_fault_guard] switches between
   the two behaviours.

   Received traffic arrives by upcall: the ND-layer's circuit readers call
   [deliver], which runs the IP-layer's event handling and routes
   application traffic into the inbox / reply ivars, all inside the
   reader. *)

open Ntcs_sim
open Ntcs_wire

(* Re-export of the one shared envelope record (see [Std_if.envelope]):
   the labels are usable both bare and as [Lcm_layer.src] etc. *)
type envelope = Std_if.envelope = {
  src : Addr.t;
  kind : [ `Data | `Dgram ];
  app_tag : int;
  mode : Convert.mode;
  src_order : Endian.order;
  data : Bytes.t;
  conv : int; (* nonzero: the sender is blocked in send_sync awaiting a reply *)
  seq : int; (* sender's LCM sequence number *)
  span : Ntcs_obs.Span.ctx; (* causal identity of the send that produced it *)
}

type t = {
  node : Node.t;
  nd : Nd_layer.t;
  ip : Ip_layer.t;
  rng : Ntcs_util.Rng.t; (* private stream for backoff jitter *)
  track : Recursion.t;
  app_inbox : envelope Sched.Mailbox.mb;
  stash : envelope Queue.t; (* set aside by tag-filtered receives *)
  waiting : (int, reply_slot) Hashtbl.t; (* conversation id -> waiter *)
  circuits : (Addr.t, circ) Hashtbl.t; (* logical-circuit span per destination *)
  forwarding : (Addr.t, Addr.t) Hashtbl.t; (* old UAdd -> replacement UAdd *)
  reestablish : (Addr.t, int) Hashtbl.t; (* per-destination circuit reestablishments *)
  last_seq : (Addr.t, int) Hashtbl.t; (* per-source high-water mark (§3.5 audit) *)
  mutable fault_oracle : (Addr.t -> (Addr.t option, Errors.t) result) option;
  mutable ns_addr : Addr.t option; (* who the name server is, for the guard *)
  mutable next_conv : int;
  mutable next_seq : int;
  mutable monitor_suppress : bool;
  mutable on_relocate : (old:Addr.t -> fresh:Addr.t -> unit) option;
  (* §3.5 reconfiguration hook: fires when the address-fault handler learns
     a relocation and patches the forwarding table — the NSP-layer listens
     to invalidate/splice its lookup caches (DESIGN.md §15). *)
  mutable deepest : int; (* recursion high-water mark already traced *)
  counters : counters;
}

and counters = {
  mutable c_sent : int;
  mutable c_received : int;
  mutable c_sync_calls : int;
  mutable c_faults : int;
  mutable c_retries : int;
  mutable c_backoff_us : int;
}

and reply_slot = { rs_dst : Addr.t; rs_ivar : (envelope, Errors.t) result Sched.Ivar.ivar }

(* One logical circuit for span purposes: this ComMod speaking to one
   destination UAdd, from first use until peer-down/shutdown. Relocation
   keeps the circuit (the logical connection survives, §3.5); a later
   reconnection after a close gets a fresh world-unique id. *)
and circ = {
  circ_id : int;
  mutable circ_seq : int;
  circ_detail : string; (* "dst=<addr>": the detail of every B event on it *)
}

let obs t = Node.obs t.node
let trace t ~cat detail = Node.record t.node ~cat ~actor:t.nd.Nd_layer.owner detail

(* --- the causal-span plane ---

   Spans are allocated here, at the entry to the Nucleus (the ALI delegates
   straight down): a world-unique circuit id per destination plus a
   per-message sequence id, combined into the [Span.ctx] that rides the
   protocol header through IP, ND, every gateway splice and every
   fault-plane retry. Ids come from the world's registry, whose allocation
   order is fixed by the deterministic scheduler. *)

let span_event t ~ctx ~phase ~name detail =
  World.span (Node.world t.node) ~ctx ~phase ~name ~actor:t.nd.Nd_layer.owner detail

let circuit_of t ~dst =
  match Hashtbl.find_opt t.circuits dst with
  | Some c -> c
  | None ->
    let id = Ntcs_obs.Registry.fresh_circuit (obs t) in
    let c = { circ_id = id; circ_seq = 0; circ_detail = "dst=" ^ Addr.to_string dst } in
    Hashtbl.replace t.circuits dst c;
    span_event t
      ~ctx:(Ntcs_obs.Span.make ~circuit:id ~seq:0)
      ~phase:Ntcs_obs.Span.B ~name:"lcm.circuit" c.circ_detail;
    c

let close_circuit t ~reason dst =
  match Hashtbl.find_opt t.circuits dst with
  | Some c ->
    Hashtbl.remove t.circuits dst;
    span_event t
      ~ctx:(Ntcs_obs.Span.make ~circuit:c.circ_id ~seq:0)
      ~phase:Ntcs_obs.Span.E ~name:"lcm.circuit" reason
  | None -> ()

let close_all_circuits t ~reason =
  List.iter (fun (dst, _) -> close_circuit t ~reason dst)
    (Ntcs_util.sorted_bindings t.circuits)

(* One ALI-boundary primitive: its span name and its latency histogram
   ("lcm.send" and "lcm.send_us", ...), both built once. *)
type op = { op_name : string; op_hist : string }

let op name = { op_name = name; op_hist = name ^ "_us" }
let op_send = op "lcm.send"
let op_send_dgram = op "lcm.send_dgram"
let op_send_sync = op "lcm.send_sync"
let op_reply = op "lcm.reply"
let op_ping = op "lcm.ping"

(* Bracket one ALI-boundary primitive in a message span: B before the work,
   E (with the outcome) after, and the elapsed sim time into the op's
   latency histogram. *)
let spanned t ~dst ~op f =
  let name = op.op_name in
  let c = circuit_of t ~dst in
  c.circ_seq <- c.circ_seq + 1;
  let ctx = Ntcs_obs.Span.make ~circuit:c.circ_id ~seq:c.circ_seq in
  let t0 = Node.now t.node in
  span_event t ~ctx ~phase:Ntcs_obs.Span.B ~name c.circ_detail;
  let r =
    (* An exception here is the owner dying mid-operation (e.g. the §6.3
       divergence's simulated stack overflow): mark the span crashed so the
       B/E pairing survives, then let the crash propagate. *)
    try f ctx
    with exn ->
      span_event t ~ctx ~phase:Ntcs_obs.Span.E ~name "crashed";
      raise exn
  in
  Ntcs_obs.Registry.observe (obs t) op.op_hist (Node.now t.node - t0);
  span_event t ~ctx ~phase:Ntcs_obs.Span.E ~name
    (match r with Ok _ -> "ok" | Error e -> "err=" ^ Errors.to_string e);
  r

let set_fault_oracle t f = t.fault_oracle <- Some f
let set_ns_addr t a = t.ns_addr <- Some a
let set_on_relocate t f = t.on_relocate <- Some f

let fresh_conv t =
  let c = t.next_conv in
  t.next_conv <- c + 1;
  c

let fresh_seq t =
  let s = t.next_seq in
  t.next_seq <- s + 1;
  s

(* §6 / lint R3: make the recursion ceiling observable from the trace. One
   event per new high-water mark, so the steady state stays quiet and
   [Check_invariants.recursion_bounded] can assert the §6.3 bound from logs. *)
let note_depth t =
  let d = Recursion.depth t.track in
  if d > t.deepest then begin
    t.deepest <- d;
    Node.event t.node ~actor:t.nd.Nd_layer.owner (Trace_event.Lcm_depth d)
  end

let tracked t f =
  Recursion.with_entry t.track (fun () ->
      note_depth t;
      f ())

(* --- the monitor / time-service hooks (§6.1) --- *)

let monitor_event t kind peer =
  if t.node.Node.config.Node.monitoring && not t.monitor_suppress then begin
    match t.node.Node.hooks.Node.on_event with
    | None -> ()
    | Some hook ->
      (* "control passes to the LCM-layer, which generates a time stamp for
         monitor data. A distributed time primitive is called, which may
         recursively call on the ComMod ..." — the hook and the timestamp
         function are installed by the DRTS and may both re-enter us. *)
      let ts =
        if t.node.Node.config.Node.timestamps then t.node.Node.hooks.Node.timestamp ()
        else Node.now t.node
      in
      hook kind (Printf.sprintf "t=%d %s" ts (Addr.to_string peer))
  end

(* --- the address-fault handler (§3.5 / §6.3) --- *)

let rec follow_forwarding t addr n =
  if n <= 0 then addr
  else begin
    match Hashtbl.find_opt t.forwarding addr with
    | Some next -> follow_forwarding t next (n - 1)
    | None -> addr
  end

let is_ns t addr = match t.ns_addr with Some a -> Addr.equal a addr | None -> false

(* Handle an address fault for [dst]. Returns the address to retry with
   (possibly the same, after clearing state for a clean reconnect), or an
   error if the destination is gone for good. *)
let address_fault t ~dst =
  t.counters.c_faults <- t.counters.c_faults + 1;
  Ntcs_obs.Registry.incr (obs t) "lcm.addr_faults";
  trace t ~cat:"lcm.fault" (Addr.to_string dst);
  (* The channel just failed, so the local tables were already consulted to
     no avail (§3.5). Next stop: the fault handler proper. *)
  match Hashtbl.find_opt t.forwarding dst with
  | Some fwd -> Ok fwd
  | None ->
    if is_ns t dst && t.node.Node.config.Node.ns_fault_guard then begin
      (* The paper's patch: the only layer that could stop the NS fault
         recursion is us, "although it also should not know of the Name
         Server". Reconnect through the well-known address instead of asking
         the NSP (which would have to reach the name server over the very
         circuit that just died). *)
      Ntcs_obs.Registry.incr (obs t) "lcm.ns_guard_hits";
      Ip_layer.forget_peer t.ip dst;
      Ok dst
    end
    else begin
      match t.fault_oracle with
      | None -> Error Errors.Destination_dead
      | Some oracle -> (
        Ntcs_obs.Registry.incr (obs t) "lcm.fault_queries";
        match oracle dst with
        | Error e -> Error e
        | Ok (Some replacement) ->
          Hashtbl.replace t.forwarding dst replacement;
          Ntcs_obs.Registry.incr (obs t) "lcm.relocations";
          trace t ~cat:"lcm.relocate"
            (Printf.sprintf "%s -> %s" (Addr.to_string dst) (Addr.to_string replacement));
          (match t.on_relocate with
           | Some f -> f ~old:dst ~fresh:replacement
           | None -> ());
          Ok replacement
        | Ok None ->
          (* Original module still alive: "it will attempt to reestablish
             what appears to be a broken communication link." *)
          Ip_layer.forget_peer t.ip dst;
          Ok dst)
    end

(* --- sending --- *)

(* Datagrams are connectionless (no recovery, §2.2); PINGs are liveness
   probes and must report on the probed address itself — transparently
   relocating a probe would make every dead module look alive. *)
let recoverable_kind = function
  | Proto.Dgram | Proto.Ping -> false
  | Proto.Data | Proto.Reply | Proto.Pong | Proto.Hello | Proto.Hello_ack | Proto.Ivc_open
  | Proto.Ivc_accept | Proto.Ivc_reject | Proto.Ivc_close -> true

(* The default deadline for every primitive; an explicit [?timeout_us]
   overrides it. It bounds the whole operation — retry backoff included. *)
let deadline_of t timeout_us =
  let budget =
    match timeout_us with
    | Some v -> v
    | None -> t.node.Node.config.Node.default_timeout_us
  in
  Node.now t.node + budget

let note_reestablish t dst =
  let n = Option.value ~default:0 (Hashtbl.find_opt t.reestablish dst) in
  Hashtbl.replace t.reestablish dst (n + 1)

(* One send under the configured retry policy (§3.5): the first attempt goes
   to [dst] (after following any forwarding chain); every later attempt runs
   the address-fault handler first — forwarding table, §6.3 guard, fault
   oracle — and reopens the circuit to whatever address it yields, with
   exponential seeded backoff between attempts. *)
let send_frame ?deadline_us ?(span = Ntcs_obs.Span.none) t ~dst ~kind ~conv ~app_tag payload =
  let recoverable = recoverable_kind kind in
  let policy =
    if recoverable then t.node.Node.config.Node.send_retry else Retry.no_retry
  in
  let cur = ref (if recoverable then follow_forwarding t dst 4 else dst) in
  let retries = ref 0 in
  let attempt_once ~attempt =
    let target =
      if attempt = 1 then Ok !cur
      else begin
        match address_fault t ~dst:!cur with
        | Error _ as e -> e
        | Ok dst' ->
          cur := dst';
          note_reestablish t dst';
          Ok dst'
        end
    in
    match target with
    | Error _ as e -> e
    | Ok dst -> (
      match Ip_layer.get_or_open t.ip ~dst with
      | Error _ as e -> e
      | Ok ivc -> Ip_layer.send t.ip ivc ~kind ~seq:(fresh_seq t) ~conv ~app_tag ~span payload)
  in
  let r =
    Retry.run (Node.sched t.node) ~rng:t.rng ?deadline_us policy ~retryable:Errors.retryable
      ~on_retry:(fun ~attempt ~delay_us e ->
        incr retries;
        t.counters.c_retries <- t.counters.c_retries + 1;
        t.counters.c_backoff_us <- t.counters.c_backoff_us + delay_us;
        Ntcs_obs.Registry.incr (obs t) "lcm.retries";
        Ntcs_obs.Registry.observe (obs t) "lcm.retry_backoff_us" delay_us;
        trace t ~cat:"lcm.retry"
          (Printf.sprintf "%s attempt=%d backoff=%dus err=%s" (Addr.to_string !cur) attempt
             delay_us (Errors.to_string e)))
      attempt_once
  in
  Ntcs_obs.Registry.observe (obs t) "lcm.retries_per_send" !retries;
  r

let send t ~dst ?(app_tag = 0) ?timeout_us payload =
  tracked t (fun () ->
      spanned t ~dst ~op:op_send (fun span ->
          monitor_event t "send" dst;
          let deadline_us = deadline_of t timeout_us in
          let r =
            send_frame ~deadline_us ~span t ~dst ~kind:Proto.Data ~conv:0 ~app_tag payload
          in
          (match r with
           | Ok () ->
             t.counters.c_sent <- t.counters.c_sent + 1;
             Ntcs_obs.Registry.incr (obs t) "lcm.sends"
           | Error _ -> Ntcs_obs.Registry.incr (obs t) "lcm.send_errors");
          r))

(* Connectionless protocol: single attempt, no relocation, no recovery. *)
let send_dgram t ~dst ?(app_tag = 0) ?timeout_us payload =
  tracked t (fun () ->
      spanned t ~dst ~op:op_send_dgram (fun span ->
          let deadline_us = deadline_of t timeout_us in
          let r =
            send_frame ~deadline_us ~span t ~dst ~kind:Proto.Dgram ~conv:0 ~app_tag payload
          in
          (match r with
           | Ok () -> Ntcs_obs.Registry.incr (obs t) "lcm.dgrams"
           | Error _ -> Ntcs_obs.Registry.incr (obs t) "lcm.dgram_errors");
          r))

let await_reply t ~dst ~conv ~timeout_us =
  let ivar = Sched.Ivar.create (Node.sched t.node) in
  Hashtbl.replace t.waiting conv { rs_dst = dst; rs_ivar = ivar };
  let result =
    match Sched.Ivar.read ~timeout:timeout_us ivar with
    | Some r -> r
    | None -> Error Errors.Timeout
  in
  Hashtbl.remove t.waiting conv;
  result

(* Synchronous send/receive/reply conversation (§1.3). *)
let send_sync t ~dst ?(app_tag = 0) ?timeout_us payload =
  tracked t (fun () ->
      spanned t ~dst ~op:op_send_sync (fun span ->
          monitor_event t "send-sync" dst;
          (* One deadline for the whole conversation: send retries, their
             backoff, and the reply wait all draw on the same budget. The
             whole conversation shares one span ctx — the reply comes back
             carrying it, so the round trip is one slice in the export. *)
          let deadline_us = deadline_of t timeout_us in
          let conv = fresh_conv t in
          match
            send_frame ~deadline_us ~span t ~dst ~kind:Proto.Data ~conv ~app_tag payload
          with
          | Error _ as e -> e
          | Ok () ->
            t.counters.c_sent <- t.counters.c_sent + 1;
            t.counters.c_sync_calls <- t.counters.c_sync_calls + 1;
            Ntcs_obs.Registry.incr (obs t) "lcm.sync_sends";
            await_reply t ~dst ~conv ~timeout_us:(max 0 (deadline_us - Node.now t.node))))

let reply t (env : envelope) ?(app_tag = 0) ?timeout_us payload =
  tracked t (fun () ->
      if env.conv = 0 then Error (Errors.Internal "reply to a message that expects none")
      else
        spanned t ~dst:env.src ~op:op_reply (fun span ->
            monitor_event t "reply" env.src;
            let deadline_us = deadline_of t timeout_us in
            send_frame ~deadline_us ~span t ~dst:env.src ~kind:Proto.Reply ~conv:env.conv
              ~app_tag payload))

(* Liveness probe: PING / PONG with a conversation id. Used by the naming
   service to decide whether an old UAdd is "really inactive" (§3.5). *)
let ping t ~dst ~timeout_us =
  tracked t (fun () ->
      spanned t ~dst ~op:op_ping (fun span ->
          let conv = fresh_conv t in
          match
            send_frame ~deadline_us:(Node.now t.node + timeout_us) ~span t ~dst
              ~kind:Proto.Ping ~conv ~app_tag:0
              (Convert.payload_raw Bytes.empty)
          with
          | Error _ as e -> e
          | Ok () -> (
            match await_reply t ~dst ~conv ~timeout_us with
            | Ok _ -> Ok ()
            | Error _ as e -> e)))

(* Take the first stashed envelope accepted by [want], if any. *)
let take_stashed t want =
  let n = Queue.length t.stash in
  let found = ref None in
  for _ = 1 to n do
    let env = Queue.pop t.stash in
    if !found = None && want env then found := Some env else Queue.push env t.stash
  done;
  !found

let recv ?timeout_us ?app_tag t =
  tracked t (fun () ->
      let want env =
        match app_tag with None -> true | Some tag -> env.app_tag = tag
      in
      let deadline = Option.map (fun d -> Node.now t.node + d) timeout_us in
      let rec pull () =
        let timeout =
          match deadline with
          | None -> None
          | Some dl -> Some (max 0 (dl - Node.now t.node))
        in
        match timeout with
        | Some 0 -> Error Errors.Timeout
        | _ -> (
          match Sched.Mailbox.recv ?timeout t.app_inbox with
          | None -> Error Errors.Timeout
          | Some env ->
            if want env then Ok env
            else begin
              (* Not for this receive: set it aside for a later one. *)
              Queue.push env t.stash;
              pull ()
            end)
      in
      let result =
        match take_stashed t want with Some env -> Ok env | None -> pull ()
      in
      (match result with
       | Ok env ->
         t.counters.c_received <- t.counters.c_received + 1;
         monitor_event t "recv" env.src
       | Error _ -> ());
      result)

(* --- delivery, by upcall from the circuit readers --- *)

let envelope_of t (d : Ip_layer.delivery) kind =
  ignore t;
  {
    src = d.Ip_layer.del_src;
    kind;
    app_tag = d.Ip_layer.del_hdr.Proto.app_tag;
    mode = d.Ip_layer.del_hdr.Proto.mode;
    src_order = d.Ip_layer.del_hdr.Proto.src_order;
    data = d.Ip_layer.del_payload;
    conv = d.Ip_layer.del_hdr.Proto.conv;
    seq = d.Ip_layer.del_hdr.Proto.seq;
    span = d.Ip_layer.del_hdr.Proto.span;
  }

(* Audit per-source sequencing: in a static environment the LCM must never
   see reordering or duplication; during reconfiguration gaps are expected
   (dropped messages) but regressions still are not. *)
let note_seq t src seq =
  match Hashtbl.find_opt t.last_seq src with
  | Some last when seq <= last ->
    Ntcs_obs.Registry.incr (obs t) "lcm.seq_regressions"
  | Some last ->
    if seq > last + 1 then Ntcs_obs.Registry.incr (obs t) "lcm.seq_gaps";
    Hashtbl.replace t.last_seq src seq
  | None -> Hashtbl.replace t.last_seq src seq

let handle_delivery t (d : Ip_layer.delivery) =
  let h = d.Ip_layer.del_hdr in
  (match h.Proto.kind with
   | Proto.Data | Proto.Dgram | Proto.Reply -> note_seq t d.Ip_layer.del_src h.Proto.seq
   | Proto.Ping | Proto.Pong | Proto.Hello | Proto.Hello_ack | Proto.Ivc_open
   | Proto.Ivc_accept | Proto.Ivc_reject | Proto.Ivc_close -> ());
  (* The frame's span ctx crossed the whole stack to get here: mark the
     hand-off to the application and sample the inbox depth it joins. *)
  let deliver_span () =
    if not (Ntcs_obs.Span.is_none h.Proto.span) then
      span_event t ~ctx:h.Proto.span ~phase:Ntcs_obs.Span.I ~name:"lcm.deliver"
        ("kind=" ^ Proto.kind_to_string h.Proto.kind)
  in
  let to_inbox env =
    Sched.Mailbox.send t.app_inbox env;
    Ntcs_obs.Registry.observe (obs t) "lcm.inbox_depth"
      (Sched.Mailbox.length t.app_inbox)
  in
  match h.Proto.kind with
  | Proto.Data ->
    deliver_span ();
    to_inbox (envelope_of t d `Data)
  | Proto.Dgram ->
    deliver_span ();
    to_inbox (envelope_of t d `Dgram)
  | Proto.Reply -> (
    deliver_span ();
    match Hashtbl.find_opt t.waiting h.Proto.conv with
    | Some slot -> ignore (Sched.Ivar.try_fill slot.rs_ivar (Ok (envelope_of t d `Data)))
    | None -> Ntcs_obs.Registry.incr (obs t) "lcm.orphan_replies")
  | Proto.Ping ->
    (* Answer from the reader itself: liveness must not depend on the
       application draining its inbox. *)
    let pong =
      (* The pong echoes the ping's span ctx, so the probe's round trip is
         attributable to the prober's circuit. *)
      Proto.make_header ~kind:Proto.Pong ~src:(Nd_layer.my_addr t.nd) ~dst:d.Ip_layer.del_src
        ~conv:h.Proto.conv ~span:h.Proto.span ~payload_len:0 ()
    in
    (match Ip_layer.find_ivc t.ip d.Ip_layer.del_src with
     | Some ivc -> ignore (Nd_layer.send_frame ivc.Ip_layer.circuit { pong with Proto.ivc = ivc.Ip_layer.label } Bytes.empty)
     | None -> ())
  | Proto.Pong -> (
    match Hashtbl.find_opt t.waiting h.Proto.conv with
    | Some slot -> ignore (Sched.Ivar.try_fill slot.rs_ivar (Ok (envelope_of t d `Data)))
    | None -> ())
  | Proto.Hello | Proto.Hello_ack | Proto.Ivc_open | Proto.Ivc_accept | Proto.Ivc_reject
  | Proto.Ivc_close ->
    (* The IP-layer never delivers these. *)
    assert false

let peers_down t peers =
  List.iter
    (fun peer ->
      (* The connectivity epoch to this peer is over: close its circuit
         span. A later send reconnects under a fresh circuit id. *)
      close_circuit t ~reason:"peer-down" peer;
      (* Fail conversations that were waiting on this peer: their reply may
         never come. The caller's fault path takes it from there. Waiters
         wake in conversation-id order, never in table order. *)
      List.iter
        (fun (_, slot) ->
          if Addr.equal slot.rs_dst peer then
            ignore (Sched.Ivar.try_fill slot.rs_ivar (Error Errors.Circuit_failed)))
        (Ntcs_util.sorted_bindings t.waiting))
    peers

let deliver t ev =
  match Ip_layer.handle_event t.ip ev with
  | Ip_layer.Consumed -> ()
  | Ip_layer.Down peers -> peers_down t peers
  | Ip_layer.Deliver d -> handle_delivery t d

let create node nd ip =
  let t =
    {
      node;
      nd;
      ip;
      (* Split off the world stream at creation: creation order is
         deterministic, so each ComMod gets a reproducible jitter stream. *)
      rng = Ntcs_util.Rng.split (World.rng (Node.world node));
      track = Recursion.create ~limit:node.Node.config.Node.recursion_limit ();
      app_inbox = Sched.Mailbox.create (Node.sched node);
      stash = Queue.create ();
      waiting = Hashtbl.create 16;
      circuits = Hashtbl.create 8;
      forwarding = Hashtbl.create 8;
      reestablish = Hashtbl.create 8;
      last_seq = Hashtbl.create 16;
      fault_oracle = None;
      ns_addr = None;
      next_conv = 1;
      next_seq = 1;
      monitor_suppress = false;
      on_relocate = None;
      deepest = 0;
      counters =
        {
          c_sent = 0;
          c_received = 0;
          c_sync_calls = 0;
          c_faults = 0;
          c_retries = 0;
          c_backoff_us = 0;
        };
    }
  in
  Nd_layer.set_deliver nd (deliver t);
  t

let shutdown t ~reason =
  close_all_circuits t ~reason;
  Nd_layer.shutdown t.nd

(* Run [f] with monitor reporting suppressed: how the DRTS services send
   their own traffic without recursing forever (§6.1: "time correction and
   monitoring are disabled here, to avoid the obvious infinite recursion"). *)
let without_monitoring t f =
  let saved = t.monitor_suppress in
  t.monitor_suppress <- true;
  Fun.protect ~finally:(fun () -> t.monitor_suppress <- saved) f

let recursion_tracker t = t.track

type stats = {
  st_sent : int;  (* successful sends, sync included *)
  st_received : int;  (* envelopes handed to the application *)
  st_sync_calls : int;
  st_faults : int;  (* address faults handled *)
  st_forwarding : int;  (* live forwarding-table entries *)
  st_retries : int;  (* send attempts beyond the first *)
  st_backoff_us : int;  (* total virtual time spent in backoff sleeps *)
  st_reestablished : (string * int) list;
      (* per-destination circuit reestablishments, sorted by address *)
}

let stats t =
  {
    st_sent = t.counters.c_sent;
    st_received = t.counters.c_received;
    st_sync_calls = t.counters.c_sync_calls;
    st_faults = t.counters.c_faults;
    st_forwarding = Hashtbl.length t.forwarding;
    st_retries = t.counters.c_retries;
    st_backoff_us = t.counters.c_backoff_us;
    st_reestablished =
      List.map (fun (a, n) -> (Addr.to_string a, n))
        (Ntcs_util.sorted_bindings t.reestablish);
  }
