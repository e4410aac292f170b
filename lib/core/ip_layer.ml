(* The Internet Protocol layer (§2.2, §4).

   Provides internet virtual circuits (IVCs): "established either as a
   single LVC on the local network, or as a chained set of LVCs linked
   through one or more Gateways". Everything here is portable — it sees only
   the uniform circuits the ND-layer provides.

   Chaining works by label swapping. Each leg of a chained IVC carries a
   label (header word [ivc]); a gateway's splice table maps (incoming
   circuit, incoming label) to (outgoing circuit, outgoing label) and back.
   Route computation is the paper's compromise: topology is centralized in
   the naming service (the plan oracle, wired up through the NSP-layer), but
   circuit establishment proceeds autonomously at each hop, and gateways
   never talk to each other outside the circuit chain itself.

   Because the conversion-mode decision (§5) needs the *final* destination's
   machine representation, the IVC — not the LVC — is where it is made: a
   direct IVC learns the peer's byte order from the ND HELLO exchange, and a
   chained IVC learns it from the HELLO carried inside IVC_OPEN/IVC_ACCEPT. *)

open Ntcs_sim
open Ntcs_ipcs
open Ntcs_wire

type ivc = {
  label : int; (* 0 = direct LVC, no chaining *)
  circuit : Nd_layer.circuit; (* first leg *)
  mutable peer : Addr.t; (* table key: final dst (or origin), may be an alias *)
  mutable wire_dst : Addr.t; (* what the remote end calls itself: the frame dst *)
  mutable remote_order : Endian.order;
  mutable remote_listen : Phys_addr.t list;
  mutable i_open : bool;
  mutable last_mode : Convert.mode option; (* last conversion mode traced (ip.convert) *)
}

(* What the routing oracle (NSP + well-known table) answers. *)
type target =
  | T_direct of Phys_addr.t list (* candidate physical addresses, tried in order *)
  | T_via of {
      hops : Addr.t list; (* gateway ComMod UAdds, first hop first *)
      first_phys : Phys_addr.t list; (* how to reach the first hop *)
    }

type gw_event =
  | Gw_open of Nd_layer.circuit * Proto.header * Proto.ivc_open
  | Gw_frame of Nd_layer.circuit * Proto.Frame.t
  | Gw_down of Nd_layer.circuit

type delivery = {
  del_src : Addr.t; (* presented (alias-resolved) source *)
  del_hdr : Proto.header;
  del_payload : Bytes.t;
}

type action =
  | Deliver of delivery
  | Consumed
  | Down of Addr.t list (* peers whose IVCs just died *)

type t = {
  nd : Nd_layer.t;
  node : Node.t;
  by_peer : (Addr.t, ivc) Hashtbl.t;
  by_leg : (int * int, ivc) Hashtbl.t; (* (circuit id, label) for chained ivcs *)
  pending : (int, (Proto.hello, Errors.t) result Sched.Ivar.ivar) Hashtbl.t; (* by label *)
  mutable plan_oracle : (Addr.t -> (target list, Errors.t) result) option;
  mutable gw_handler : (gw_event -> unit) option;
  image_key : string; (* "conv.image_msgs.<owner>" *)
  packed_key : string; (* "conv.packed_msgs.<owner>" *)
}

let create node nd =
  {
    nd;
    node;
    image_key = "conv.image_msgs." ^ nd.Nd_layer.owner;
    packed_key = "conv.packed_msgs." ^ nd.Nd_layer.owner;
    by_peer = Hashtbl.create 16;
    by_leg = Hashtbl.create 16;
    pending = Hashtbl.create 8;
    plan_oracle = None;
    gw_handler = None;
  }

let set_plan_oracle t f = t.plan_oracle <- Some f
let set_gateway_handler t f = t.gw_handler <- Some f

let obs t = Node.obs t.node
let trace t ~cat detail = Node.record t.node ~cat ~actor:t.nd.Nd_layer.owner detail
let event t ev = Node.event t.node ~actor:t.nd.Nd_layer.owner ev

let my_hello t =
  {
    Proto.h_addr = Nd_layer.my_addr t.nd;
    h_order = Node.my_order t.node;
    h_listen = List.map Phys_addr.to_string (Nd_layer.my_listen_addrs t.nd);
  }

let register_ivc t ivc =
  Hashtbl.replace t.by_peer ivc.peer ivc;
  if ivc.label <> 0 then Hashtbl.replace t.by_leg (ivc.circuit.Nd_layer.cid, ivc.label) ivc

let unregister_ivc t ivc =
  (match Hashtbl.find_opt t.by_peer ivc.peer with
   | Some i when i == ivc -> Hashtbl.remove t.by_peer ivc.peer
   | Some _ | None -> ());
  if ivc.label <> 0 then Hashtbl.remove t.by_leg (ivc.circuit.Nd_layer.cid, ivc.label)

(* A direct IVC is the ND circuit itself (label 0): the peer's address,
   byte order and listening addresses are what its HELLO announced. *)
let direct_ivc t circuit =
  let ivc =
    {
      label = 0;
      circuit;
      peer = circuit.Nd_layer.peer_addr;
      wire_dst = circuit.Nd_layer.peer_announced;
      remote_order = circuit.Nd_layer.peer_order;
      remote_listen = circuit.Nd_layer.peer_listen;
      i_open = true;
      last_mode = None;
    }
  in
  register_ivc t ivc;
  ivc

let find_ivc t peer =
  let peer = Nd_layer.resolve_alias t.nd peer in
  match Hashtbl.find_opt t.by_peer peer with
  | Some ivc when ivc.i_open && ivc.circuit.Nd_layer.c_open -> Some ivc
  | Some _ | None ->
    (* Circuits are bidirectional: a peer that opened an LVC to us is
       directly reachable over it (this is how replies to not-yet-resolvable
       sources — e.g. TAdd clients of the name server — find their way). *)
    Option.map (direct_ivc t) (Nd_layer.find_circuit t.nd peer)

let open_direct t ~dst ~phys_candidates =
  Result.map (direct_ivc t) (Nd_layer.circuit_to t.nd dst ~phys_candidates)

let open_chained t ~dst ~hops ~first_phys =
  match hops with
  | [] -> Error (Errors.Internal "empty gateway route")
  | first_gw :: rest ->
    (match Nd_layer.circuit_to t.nd first_gw ~phys_candidates:first_phys with
     | Error _ as e -> e
     | Ok circuit ->
       let label = Registry.fresh_label t.node.Node.ipcs in
       let ivar = Sched.Ivar.create (Node.sched t.node) in
       Hashtbl.replace t.pending label ivar;
       let body =
         Packed.run_pack Proto.ivc_open_codec
           { Proto.route = rest; final_dst = dst; origin_hello = my_hello t }
       in
       let header =
         Proto.make_header ~kind:Proto.Ivc_open ~src:(Nd_layer.my_addr t.nd) ~dst:first_gw
           ~src_order:(Node.my_order t.node) ~ivc:label ~payload_len:0 ()
       in
       Ntcs_obs.Registry.incr (obs t) "ip.ivc_open_sent";
       event t (Trace_event.Ip_ivc_open_sent { label; dst });
       (match Nd_layer.send_frame circuit header body with
        | Error _ as e ->
          Hashtbl.remove t.pending label;
          e
        | Ok () -> (
          let timeout = t.node.Node.config.Node.default_timeout_us in
          match Sched.Ivar.read ~timeout ivar with
          | None ->
            Hashtbl.remove t.pending label;
            Error Errors.Timeout
          | Some (Error _ as e) ->
            Hashtbl.remove t.pending label;
            e
          | Some (Ok hello) ->
            Hashtbl.remove t.pending label;
            let ivc =
              {
                label;
                circuit;
                peer = dst;
                wire_dst = hello.Proto.h_addr;
                remote_order = hello.Proto.h_order;
                remote_listen = List.filter_map Phys_addr.of_string hello.Proto.h_listen;
                i_open = true;
                last_mode = None;
              }
            in
            register_ivc t ivc;
            event t (Trace_event.Ip_ivc_open { dst; hops = List.length hops; label });
            Ok ivc)))

(* Open an IVC to [dst]: ask the routing oracle whether it is local or
   behind gateways, then establish accordingly, trying route alternatives in
   the oracle's order. *)
let open_ivc t ~dst =
  match t.plan_oracle with
  | None -> Error (Errors.Internal "no routing oracle wired")
  | Some plan -> (
    match plan dst with
    | Error _ as e -> e
    | Ok targets ->
      let rec attempt last = function
        | [] -> Error last
        | target :: rest -> (
          let result =
            match target with
            | T_direct phys_candidates -> open_direct t ~dst ~phys_candidates
            | T_via { hops; first_phys } -> open_chained t ~dst ~hops ~first_phys
          in
          match result with
          | Ok _ as ok -> ok
          | Error e -> attempt e rest)
      in
      attempt Errors.Unreachable targets)

let get_or_open t ~dst =
  match find_ivc t dst with
  | Some ivc -> Ok ivc
  | None ->
    (* Establishment cost is the IP layer's dominant latency: histogram it
       (sim-time µs) so ntcs_stat can split open cost from transfer cost. *)
    let t0 = Node.now t.node in
    let r = open_ivc t ~dst in
    Ntcs_obs.Registry.observe (obs t) "ip.open_us" (Node.now t.node - t0);
    r

(* Send application-level traffic on an IVC. This is where the §5 decision
   is made: identical representation -> image mode (byte copy), otherwise
   packed mode (application conversion). *)
let send t ivc ~kind ?(seq = 0) ?(conv = 0) ?(app_tag = 0) ?(span = Ntcs_obs.Span.none)
    (payload : Convert.payload) =
  if not (ivc.i_open && ivc.circuit.Nd_layer.c_open) then Error Errors.Circuit_failed
  else begin
    let my_order = Node.my_order t.node in
    let mode =
      if t.node.Node.config.Node.force_packed then Convert.Packed
      else if my_order = ivc.remote_order then Convert.Image
      else Convert.Packed
    in
    (* Per-ComMod counters track application payload conversions only;
       naming-service and DRTS control traffic is excluded so experiments can
       isolate the application's conversion behaviour (E6). *)
    let application_traffic =
      app_tag < 8000
      && (match kind with
          | Proto.Data | Proto.Reply | Proto.Dgram -> true
          | Proto.Ping | Proto.Pong | Proto.Hello | Proto.Hello_ack | Proto.Ivc_open
          | Proto.Ivc_accept | Proto.Ivc_reject | Proto.Ivc_close -> false)
    in
    (* One trace event per mode *transition* on the IVC: enough for the R3
       invariant (never packed between identical representations, never
       image between different ones) and for watching E6's adaptive flip,
       without a per-frame flood. *)
    if ivc.last_mode <> Some mode then begin
      ivc.last_mode <- Some mode;
      event t
        (Trace_event.Ip_convert
           {
             mode;
             local = my_order;
             remote = ivc.remote_order;
             dst = ivc.peer;
             forced = t.node.Node.config.Node.force_packed;
           })
    end;
    (match mode with
     | Convert.Image ->
       Ntcs_obs.Registry.incr (obs t) "conv.image_msgs";
       if application_traffic then
         Ntcs_obs.Registry.incr (obs t) t.image_key
     | Convert.Packed ->
       Ntcs_obs.Registry.incr (obs t) "conv.packed_msgs";
       if application_traffic then
         Ntcs_obs.Registry.incr (obs t) t.packed_key);
    let data = Convert.force mode payload in
    let dst =
      if ivc.label = 0 then ivc.circuit.Nd_layer.peer_announced else ivc.wire_dst
    in
    let header =
      Proto.make_header ~kind ~src:(Nd_layer.my_addr t.nd) ~dst ~mode
        ~src_order:my_order ~seq ~conv ~app_tag ~ivc:ivc.label ~span
        ~payload_len:(Bytes.length data) ()
    in
    Nd_layer.send_frame ivc.circuit header data
  end

(* --- incoming traffic --- *)

(* The final destination's half of IVC establishment. *)
let accept_chained_fresh t circuit (h : Proto.header) (req : Proto.ivc_open) =
  let origin_real = req.Proto.origin_hello.Proto.h_addr in
  let peer_key =
    if Addr.is_temporary origin_real then Nd_layer.fresh_alias t.nd else origin_real
  in
  (* A relocated or reconnecting origin replaces its old IVC. *)
  (match Hashtbl.find_opt t.by_peer peer_key with
   | Some old when old.label <> 0 -> unregister_ivc t old
   | Some _ | None -> ());
  let ivc =
    {
      label = h.Proto.ivc;
      circuit;
      peer = peer_key;
      wire_dst = origin_real;
      remote_order = req.Proto.origin_hello.Proto.h_order;
      remote_listen =
        List.filter_map Phys_addr.of_string req.Proto.origin_hello.Proto.h_listen;
      i_open = true;
      last_mode = None;
    }
  in
  register_ivc t ivc;
  Ntcs_obs.Registry.incr (obs t) "ip.ivc_accepted";
  event t (Trace_event.Ip_ivc_accept { peer = peer_key; label = h.Proto.ivc });
  let reply =
    Proto.make_header ~kind:Proto.Ivc_accept ~src:(Nd_layer.my_addr t.nd) ~dst:origin_real
      ~src_order:(Node.my_order t.node) ~ivc:h.Proto.ivc ~payload_len:0 ()
  in
  ignore
    (Nd_layer.send_frame circuit reply (Packed.run_pack Proto.hello_codec (my_hello t)))

let accept_chained t circuit (h : Proto.header) (req : Proto.ivc_open) =
  if Hashtbl.mem t.by_leg (circuit.Nd_layer.cid, h.Proto.ivc) then begin
    (* A duplicated open frame (the fault plane may duplicate any
       single-segment frame): this leg is already established and acked.
       Accepting again would drive the lifecycle automaton's open on a live
       label — drop it instead. The origin never retries an open under the
       same label (a timed-out open goes out again under a fresh one), so
       no re-ack is owed. *)
    Ntcs_obs.Registry.incr (obs t) "ip.duplicate_opens";
    trace t ~cat:"ip.dup_open" (Printf.sprintf "label %d" h.Proto.ivc)
  end
  else accept_chained_fresh t circuit h req

(* Presented source for an application frame: chained frames resolve through
   the IVC's peer key (and upgrade TAdd aliases on the spot, §3.4); direct
   frames use the ND circuit's peer, which the ND-layer keeps upgraded. *)
let presented_src t circuit (h : Proto.header) =
  if h.Proto.ivc <> 0 then begin
    match Hashtbl.find_opt t.by_leg (circuit.Nd_layer.cid, h.Proto.ivc) with
    | None -> h.Proto.src
    | Some ivc ->
      if Addr.is_temporary ivc.peer && Addr.is_unique h.Proto.src then begin
        let alias = ivc.peer in
        unregister_ivc t ivc;
        ivc.peer <- h.Proto.src;
        ivc.wire_dst <- h.Proto.src;
        register_ivc t ivc;
        Nd_layer.note_alias_purged t.nd alias h.Proto.src;
        Node.record t.node ~cat:"ip.tadd_purge" ~actor:t.nd.Nd_layer.owner
          (Printf.sprintf "%s -> %s" (Addr.to_string alias) (Addr.to_string h.Proto.src))
      end;
      ivc.peer
  end
  else Nd_layer.resolve_alias t.nd circuit.Nd_layer.peer_addr

let handle_circuit_down t circuit =
  (* Every IVC riding this circuit is gone; report the peers upward so the
     LCM can attempt relocation (§4.3: "the error is passed up to the
     LCM-layer, where a new connection (or relocation) will be attempted"). *)
  let dead =
    Ntcs_util.sorted_bindings ~compare:Addr.compare t.by_peer
    |> List.filter_map (fun (_, ivc) -> if ivc.circuit == circuit then Some ivc else None)
  in
  List.iter
    (fun ivc ->
      ivc.i_open <- false;
      unregister_ivc t ivc)
    dead;
  (match t.gw_handler with Some h -> h (Gw_down circuit) | None -> ());
  let direct_peer =
    (* The circuit peer itself may have had no explicit IVC entry. *)
    if Addr.is_unique circuit.Nd_layer.peer_addr then [ circuit.Nd_layer.peer_addr ] else []
  in
  let peers = List.map (fun ivc -> ivc.peer) dead @ direct_peer in
  Down (List.sort_uniq Addr.compare peers)

(* Materialise a view's payload — the one copy a locally-consumed frame
   pays, accounted in the histogram the bench reads. *)
let materialise t view =
  let p = Proto.Frame.payload_bytes view in
  Ntcs_obs.Registry.observe (obs t) "frame.bytes_copied" (Bytes.length p);
  p

let handle_event t (ev : Nd_layer.event) =
  match ev with
  | Nd_layer.Circuit_down (circuit, _err) -> handle_circuit_down t circuit
  | Nd_layer.Frame (circuit, view) ->
    let h = Proto.Frame.header view in
    (* Cascade teardown (§4.3) is matched by leg label before any address
       check: the gateway that lost a leg cannot know the end module's
       current address, only the label of the circuit being torn down. *)
    let closing =
      if h.Proto.kind = Proto.Ivc_close then
        Hashtbl.find_opt t.by_leg (circuit.Nd_layer.cid, h.Proto.ivc)
      else None
    in
    match closing with
    | Some ivc ->
      ivc.i_open <- false;
      unregister_ivc t ivc;
      Ntcs_obs.Registry.incr (obs t) "ip.ivc_closed_remote";
      event t
        (Trace_event.Ip_ivc_close { label = ivc.label; peer = ivc.peer; side = Trace_event.Remote });
      Down [ ivc.peer ]
    | None when Nd_layer.is_me t.nd h.Proto.dst -> begin
      match h.Proto.kind with
      | Proto.Ivc_open -> (
        match Packed.run_unpack_result Proto.ivc_open_codec (materialise t view) with
        | Error m ->
          trace t ~cat:"ip.bad_open" m;
          Consumed
        | Ok req ->
          if Nd_layer.is_me t.nd req.Proto.final_dst then begin
            accept_chained t circuit h req;
            Consumed
          end
          else begin
            (* Addressed to us but destined elsewhere: we are expected to be
               a gateway hop. *)
            match t.gw_handler with
            | Some handler ->
              handler (Gw_open (circuit, h, req));
              Consumed
            | None ->
              Nd_layer.send_control circuit ~kind:Proto.Ivc_reject ~dst:h.Proto.src
                ~ivc:h.Proto.ivc "not a gateway";
              Consumed
          end)
      | Proto.Ivc_accept -> (
        match Hashtbl.find_opt t.pending h.Proto.ivc with
        | None -> Consumed
        | Some ivar -> (
          match Packed.run_unpack_result Proto.hello_codec (materialise t view) with
          | Ok hello ->
            ignore (Sched.Ivar.try_fill ivar (Ok hello));
            Consumed
          | Error m ->
            ignore (Sched.Ivar.try_fill ivar (Error (Errors.Bad_message m)));
            Consumed))
      | Proto.Ivc_reject -> (
        match Hashtbl.find_opt t.pending h.Proto.ivc with
        | None -> Consumed
        | Some ivar ->
          event t (Trace_event.Ip_ivc_reject { label = h.Proto.ivc });
          ignore (Sched.Ivar.try_fill ivar (Error Errors.Unreachable));
          Consumed)
      | Proto.Ivc_close (* of no leg of ours: handled above if it were *)
      | Proto.Hello | Proto.Hello_ack (* handshake residue *) -> Consumed
      | Proto.Data | Proto.Dgram | Proto.Reply | Proto.Ping | Proto.Pong ->
        let src = presented_src t circuit h in
        Deliver { del_src = src; del_hdr = h; del_payload = materialise t view }
    end
    | None -> (
      (* Not addressed to this module: gateway forwarding, or noise. The
         view travels whole — the gateway patches its header words in place
         and forwards without touching the payload. *)
      match t.gw_handler with
      | Some handler ->
        handler (Gw_frame (circuit, view));
        Consumed
      | None ->
        Ntcs_obs.Registry.incr (obs t) "ip.misaddressed";
        Consumed)

(* Drop connection state for a peer (used by the LCM after relocation: the
   new instance needs a fresh circuit, §3.5). *)
let forget_peer t peer =
  match Hashtbl.find_opt t.by_peer peer with
  | Some ivc when ivc.i_open ->
    ivc.i_open <- false;
    if ivc.label = 0 then Nd_layer.close_circuit ivc.circuit
    else begin
      event t
        (Trace_event.Ip_ivc_close
           { label = ivc.label; peer = ivc.peer; side = Trace_event.Local "forget" });
      Nd_layer.send_control ivc.circuit ~kind:Proto.Ivc_close ~dst:ivc.peer ~ivc:ivc.label
        "forget"
    end;
    unregister_ivc t ivc
  | Some _ | None -> ()
