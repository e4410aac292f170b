(* The Gateway module (§4).

   One portable piece of code, instantiated once per gateway machine,
   bridging any set of networks: "the same Gateway module [can] be used for
   all networks and machines. The ability for each Gateway module to
   communicate with different networks is handled by the independent ComMods
   with which it binds. Each ComMod is bound with an ND-Layer designed for
   one of the networks."

   Gateways splice pairs of circuit legs by label. They never talk to each
   other outside the circuit chain (§4.2); every piece of topology knowledge
   they need comes from the naming service, with which they register like
   any application module (§4.1). Prime gateways adopt pre-assigned
   well-known addresses instead of registering (§3.4); all others register
   and are found through the naming service. *)

(* lint: allow-file layering(Commod) — gateways bind full ComMods and
   register through the naming service exactly like application modules
   (§4.1); only their splicing runs at the IP level. *)

open Ntcs_sim
open Ntcs_ipcs

type leg = {
  lg_net : Net.id;
  lg_circuit : Nd_layer.circuit;
  lg_label : int;
  lg_route : Trace_event.route; (* traced by gw.splice, gw.forward and gw.close *)
  lg_hop : string; (* "net<in>->net<out>", gw.forward's span detail *)
  mutable lg_dst : Addr.t; (* destination of the last frame forwarded *)
}

(* The leg a frame arriving on ([in_net], [in_label]) leaves by. The route
   and its span text are fixed for the splice's life, so they are built
   once here rather than on every forwarded frame. *)
let make_leg ~in_net ~in_label ~net ~circuit ~label ~dst =
  {
    lg_net = net;
    lg_circuit = circuit;
    lg_label = label;
    lg_route = { Trace_event.in_net; in_label; out_net = net; out_label = label };
    lg_hop = String.concat "" [ "net"; string_of_int in_net; "->net"; string_of_int net ];
    lg_dst = dst;
  }

type t = {
  node : Node.t;
  gw_name : string;
  nets : Net.id list;
  prime_addrs : (Net.id * Addr.t) list; (* pre-assigned well-known addresses *)
  prime_phys : (Net.id * Phys_addr.t list) list; (* fixed listening resources *)
  mutable commods : (Net.id * Commod.t) list;
  (* (net of receiving commod, circuit id, label) -> the other leg *)
  splices : (Net.id * int * int, leg) Hashtbl.t;
}

let create node ~name ~nets ?(prime_addrs = []) ?(prime_phys = []) () =
  {
    node;
    gw_name = name;
    nets;
    prime_addrs;
    prime_phys;
    commods = [];
    splices = Hashtbl.create 32;
  }

let obs t = Node.obs t.node
let trace t ~cat detail = Node.record t.node ~cat ~actor:t.gw_name detail
let event t ev = Node.event t.node ~actor:t.gw_name ev

let spans_csv t = String.concat "," (List.map string_of_int t.nets)

let leg_key (net : Net.id) (circuit : Nd_layer.circuit) label =
  (net, circuit.Nd_layer.cid, label)

(* Establish the next leg of a chained IVC and splice it to the inbound one.
   Runs in its own worker process: it performs naming-service lookups and a
   blocking channel open, and the gateway must keep forwarding meanwhile. *)
let handle_open t (in_net : Net.id) (in_commod : Commod.t) in_circuit (h : Proto.header)
    (req : Proto.ivc_open) =
  let in_key = leg_key in_net in_circuit h.Proto.ivc in
  let reject reason =
    Nd_layer.send_control in_circuit ~kind:Proto.Ivc_reject ~dst:h.Proto.src ~ivc:h.Proto.ivc
      reason
  in
  if Hashtbl.mem t.splices in_key then begin
    (* Duplicated IVC_OPEN (the fault plane can replay control frames): the
       splice already exists and the original open already answered —
       splice repair must be idempotent, so drop the replay instead of
       opening a second outbound leg over the live one. *)
    Ntcs_obs.Registry.incr (obs t) "gw.duplicate_opens";
    trace t ~cat:"gw.dup_open"
      (Printf.sprintf "net%d label %d dst=%s" in_net h.Proto.ivc
         (Addr.to_string req.Proto.final_dst))
  end
  else begin
  if h.Proto.hops >= 255 then begin
    (* The 8-bit hop field is full: a route this deep is a loop (E7), and
       encoding hops+1 would be rejected rather than silently wrapped. *)
    Ntcs_obs.Registry.incr (obs t) "gw.hop_overflow";
    reject "hop limit exceeded"
  end
  else begin
  let target =
    match req.Proto.route with [] -> req.Proto.final_dst | next :: _ -> next
  in
  let resolver = Commod.resolver in_commod in
  match Router.locate t.node resolver target with
  | Error e ->
    Ntcs_obs.Registry.incr (obs t) "gw.open_failures";
    reject (Errors.to_string e)
  | Ok (phys_candidates, target_nets) -> (
    (* Pick the outbound ComMod: one of ours attached to a network the
       target is on. *)
    let out =
      List.find_opt (fun (net, _) -> List.mem net target_nets) t.commods
    in
    match out with
    | None ->
      Ntcs_obs.Registry.incr (obs t) "gw.open_failures";
      reject "no outbound network"
    | Some (out_net, out_commod) -> (
      match Nd_layer.circuit_to (Commod.nd out_commod) target ~phys_candidates with
      | Error e ->
        Ntcs_obs.Registry.incr (obs t) "gw.open_failures";
        reject (Errors.to_string e)
      | Ok out_circuit ->
        if Hashtbl.mem t.splices in_key then begin
          (* A worker for a replayed copy of this open won the race while we
             were blocked on naming / channel setup: same answer as above. *)
          Ntcs_obs.Registry.incr (obs t) "gw.duplicate_opens";
          trace t ~cat:"gw.dup_open"
            (Printf.sprintf "net%d label %d dst=%s (lost race)" in_net h.Proto.ivc
               (Addr.to_string req.Proto.final_dst))
        end
        else begin
          let out_label = Registry.fresh_label t.node.Node.ipcs in
          let dst = req.Proto.final_dst in
          let out_leg =
            make_leg ~in_net ~in_label:h.Proto.ivc ~net:out_net ~circuit:out_circuit
              ~label:out_label ~dst
          in
          Hashtbl.replace t.splices in_key out_leg;
          Hashtbl.replace t.splices
            (leg_key out_net out_circuit out_label)
            (make_leg ~in_net:out_net ~in_label:out_label ~net:in_net ~circuit:in_circuit
               ~label:h.Proto.ivc ~dst);
          let body =
            Ntcs_wire.Packed.run_pack Proto.ivc_open_codec
              { req with Proto.route = (match req.Proto.route with [] -> [] | _ :: r -> r) }
          in
          let fwd =
            { h with Proto.dst = target; ivc = out_label; hops = h.Proto.hops + 1 }
          in
          Ntcs_obs.Registry.incr (obs t) "gw.opens";
          event t (Trace_event.Gw_splice { route = out_leg.lg_route; dst });
          match Nd_layer.send_frame out_circuit fwd body with
          | Ok () -> ()
          | Error e ->
            Hashtbl.remove t.splices in_key;
            Hashtbl.remove t.splices (leg_key out_net out_circuit out_label);
            reject (Errors.to_string e)
        end))
  end
  end

let remove_splice_pair t in_key (out_leg : leg) =
  (* Idempotent: a duplicated IVC_CLOSE (the fault plane can replay control
     frames), the forward-error path and the close path may all tear down
     the same splice — only the first call does anything, so [gw.close] is
     traced exactly once per splice and a replayed close can never tear
     down a successor splice reusing the labels. Traced so the lifecycle
     checker (ntcs_check) can prove no frame is ever forwarded across a
     splice after its teardown (§4.3 ordering). *)
  if Hashtbl.mem t.splices in_key then begin
    event t (Trace_event.Gw_close out_leg.lg_route);
    Hashtbl.remove t.splices in_key;
    Hashtbl.remove t.splices (leg_key out_leg.lg_net out_leg.lg_circuit out_leg.lg_label)
  end

(* Forward one frame across a splice, label-swapped. Messages can sit in a
   dead leg's queue and be lost during reconfiguration — "for all practical
   purposes, this is indistinguishable from the issues already discussed due
   to dynamic reconfiguration" (§4.3).

   The forward is zero-copy: only the two affected shift-mode header words
   (label, hop count) are patched in place; the frame's bytes otherwise
   leave exactly as they arrived. [h] is the pre-patch header snapshot —
   patches build a fresh memoised record, so the error path below still
   sees the inbound label and source. *)
let handle_frame t (net : Net.id) circuit (view : Proto.Frame.t) =
  let h = Proto.Frame.header view in
  let key = leg_key net circuit h.Proto.ivc in
  match Hashtbl.find_opt t.splices key with
  | None -> Ntcs_obs.Registry.incr (obs t) "gw.orphan_frames"
  | Some out ->
    if h.Proto.hops >= 255 then begin
      (* Hop field full: this frame is looping (E7). Dropping it here is
         the loop protection the 8-bit counter exists for — wrapping to a
         small value would let it circulate forever. *)
      Ntcs_obs.Registry.incr (obs t) "gw.hop_overflow";
      trace t ~cat:"gw.hop_overflow"
        (Printf.sprintf "net%d label %d kind=%s dst=%s" net h.Proto.ivc
           (Proto.kind_to_string h.Proto.kind)
           (Addr.to_string h.Proto.dst))
    end
    else begin
      Proto.Frame.patch_ivc view out.lg_label;
      Proto.Frame.patch_hops view (h.Proto.hops + 1);
      Ntcs_obs.Registry.incr (obs t) "gw.forwards";
      (* Every forwarding decision is traced so the §4.2 invariant — gateways
         never talk to each other — is checkable from event logs (R3)
         instead of assumed. The entry keeps its fields, so it holds the
         leg's copy of a repeated destination and the shared null span: of
         this frame's decoded blocks it keeps only a span the span log
         keeps too. *)
      if not (Addr.equal h.Proto.dst out.lg_dst) then out.lg_dst <- h.Proto.dst;
      let span = h.Proto.span in
      event t
        (Trace_event.Gw_forward
           {
             route = out.lg_route;
             kind = h.Proto.kind;
             dst = out.lg_dst;
             span =
               (if span.Ntcs_obs.Span.sp_circuit = 0 && span.sp_seq = 0 then
                  Ntcs_obs.Span.none
                else span);
           });
      if not (Ntcs_obs.Span.is_none span) then
        World.span (Node.world t.node) ~ctx:span ~phase:Ntcs_obs.Span.I ~name:"gw.forward"
          ~actor:t.gw_name out.lg_hop;
      (match Nd_layer.forward_view out.lg_circuit view with
       | Ok () -> ()
       | Error _ ->
         (* Outbound leg just died: tear the chain down toward the inbound
            side. The reader on the dead leg will handle the other side. *)
         Nd_layer.send_control circuit ~kind:Proto.Ivc_close ~dst:h.Proto.src ~ivc:h.Proto.ivc
           "leg failed";
         remove_splice_pair t key out);
      if h.Proto.kind = Proto.Ivc_close then remove_splice_pair t key out
    end

(* A whole circuit died: cascade IVC_CLOSE across every splice riding it
   (§4.3), in both directions. *)
let handle_down t (net : Net.id) circuit =
  (* Cascade in (net, circuit, label) order: peers see the closes in a
     reproducible sequence. *)
  let affected =
    Ntcs_util.sorted_bindings t.splices
    |> List.filter (fun ((k_net, k_cid, _), _) -> k_net = net && k_cid = circuit.Nd_layer.cid)
  in
  List.iter
    (fun (key, (out : leg)) ->
      (* Matched by label, not address: the end module's address is not
         known here. *)
      Nd_layer.send_control out.lg_circuit ~kind:Proto.Ivc_close
        ~dst:(Nd_layer.my_addr out.lg_circuit.Nd_layer.nd) ~ivc:out.lg_label
        "upstream circuit failed";
      Ntcs_obs.Registry.incr (obs t) "gw.cascade_closes";
      remove_splice_pair t key out)
    affected

(* The gateway process body. *)
let serve t () =
  (* Bind one ComMod per bridged network. *)
  t.commods <-
    List.map
      (fun net ->
        let name = Printf.sprintf "gw/%s@%d" t.gw_name net in
        let fixed = List.assoc_opt net t.prime_phys in
        match Commod.bind t.node ~name ~allowed_nets:[ net ] ?fixed ~register_name:false with
        | Ok c -> (net, c)
        | Error e -> failwith ("gateway bind failed: " ^ Errors.to_string e))
      t.nets;
  (* Prime gateways adopt their well-known addresses; others register with
     the naming service, carrying their topology as attributes. *)
  List.iter
    (fun (net, commod) ->
      (match List.assoc_opt net t.prime_addrs with
      | Some addr -> Nd_layer.set_my_addr (Commod.nd commod) addr
      | None ->
        let attrs =
          [
            (Router.attr_gateway, "yes");
            (Router.attr_net, string_of_int net);
            (Router.attr_spans, spans_csv t);
            ("service", "gateway/" ^ t.gw_name);
          ]
        in
        (match Commod.register commod ~attrs with
         | Ok _ -> ()
         | Error e ->
           trace t ~cat:"gw.register_fail"
             (Printf.sprintf "net %d: %s" net (Errors.to_string e))));
      (* Publish each ComMod's settled address: the R3 trace checker learns
         the set of gateway addresses from these events. *)
      event t (Trace_event.Gw_addr (Nd_layer.my_addr (Commod.nd commod))))
    t.commods;
  (* Each ComMod's gateway events are handled where they arise, in the
     reader of the circuit they came in on. Only a chain open runs in a
     worker process of its own: it blocks on naming and channel setup, and
     the circuit must keep forwarding meanwhile. *)
  List.iter
    (fun (net, commod) ->
      Ip_layer.set_gateway_handler (Commod.ip commod) (function
        | Ip_layer.Gw_open (circuit, h, req) ->
          ignore
            (World.spawn (Node.world t.node) ~machine:(Node.machine t.node)
               ~name:(Printf.sprintf "%s/open-worker" t.gw_name) (fun () ->
                 handle_open t net commod circuit h req))
        | Ip_layer.Gw_frame (circuit, view) -> handle_frame t net circuit view
        | Ip_layer.Gw_down circuit -> handle_down t net circuit))
    t.commods;
  trace t ~cat:"gw.up" (Printf.sprintf "bridging nets [%s]" (spans_csv t));
  (* Park: the ComMods live as long as this process, and its exit shuts
     them down. *)
  Sched.suspend ignore

let splice_count t = Hashtbl.length t.splices

let commods t = t.commods
