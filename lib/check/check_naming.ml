(* Cache-coherence invariants of the sharded naming plane (DESIGN.md §15),
   checked over the structured trace.

   The NSP-layer emits ns.cache.{hit,stale,store,invalidate} events (one
   actor per caching ComMod) and the shard servers emit ns.shard.forward /
   ns.shard.gen. Four invariants make "a stale cache hit must resolve to a
   miss plus a re-lookup, never a delivery on the old circuit" checkable
   end to end:

   1. Store monotonicity — per (actor, shard), the generations recorded by
      ns.cache.store never decrease. (The cache clamps stored generations
      up to the shard's floor, so a violation means the floor went
      backwards.)

   2. Floor discipline — after an actor's cache raised shard [s]'s floor to
      [g] (an ns.cache.invalidate of cause Floor_raised), every later
      ns.cache.hit that actor reports for shard [s] carries a generation at
      least [g]: an invalidated entry can never be served fresh again.

   3. Stale splice — a stale hit on a key is a miss: between an actor's
      ns.cache.stale on key [k] and its next ns.cache.hit on [k] there must
      be an ns.cache.store on [k] (the re-lookup's fresh answer).

   4. Hop bound — shard-router forwarding is one hop at most: every
      ns.shard.forward event's hop is <= 1.

   The events are the typed Ntcs.Trace_event constructors; cache keys
   compare as data, so a name may contain any words at all. *)

open Ntcs

let check (entries : Ntcs_sim.Trace.entry list) =
  let errs = ref [] in
  let err at fmt =
    Printf.ksprintf (fun m -> errs := Printf.sprintf "t=%dus: %s" at m :: !errs) fmt
  in
  let store_gen : (string * int, int) Hashtbl.t = Hashtbl.create 16 in
  let floors : (string * int, int) Hashtbl.t = Hashtbl.create 16 in
  let awaiting_store : (string * Trace_event.cache_key, int) Hashtbl.t =
    Hashtbl.create 16
  in
  List.iter
    (fun (e : Ntcs_sim.Trace.entry) ->
      match e.event with
      | Trace_event.Ns_cache_store { key; shard; gen } ->
        (match Hashtbl.find_opt store_gen (e.actor, shard) with
         | Some prev when gen < prev ->
           err e.at_us "%s: store gen went backwards on shard %d (%d after %d, key %s)"
             e.actor shard gen prev (Trace_event.key_to_string key)
         | _ -> ());
        Hashtbl.replace store_gen (e.actor, shard) gen;
        Hashtbl.remove awaiting_store (e.actor, key)
      | Trace_event.Ns_cache_stale { key; _ } ->
        Hashtbl.replace awaiting_store (e.actor, key) e.at_us
      | Trace_event.Ns_cache_hit { key; shard; gen } ->
        (match Hashtbl.find_opt awaiting_store (e.actor, key) with
         | Some since ->
           err e.at_us "%s: hit on %s after a stale hit at t=%dus with no store in between"
             e.actor (Trace_event.key_to_string key) since
         | None -> ());
        (match Hashtbl.find_opt floors (e.actor, shard) with
         | Some floor when gen < floor ->
           err e.at_us "%s: hit on %s at gen %d below shard %d's floor %d" e.actor
             (Trace_event.key_to_string key) gen shard floor
         | _ -> ())
      | Trace_event.Ns_cache_invalidate
          { cause = Trace_event.Floor_raised { shard; floor }; _ } ->
        Hashtbl.replace floors (e.actor, shard) floor
      | Trace_event.Ns_shard_forward { hop; _ } when hop > 1 ->
        err e.at_us "%s: shard forward exceeded the one-hop bound (hop %d: %s)" e.actor hop
          (Ntcs_sim.Trace.detail e)
      | _ -> ())
    entries;
  List.rev_map (fun m -> "naming coherence: " ^ m) !errs
