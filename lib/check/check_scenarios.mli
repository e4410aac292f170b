(** The scenario registry: every bounded exchange ntcs_check explores.
    Each scenario builds a small cluster, drives one protocol exchange, and
    reports that exchange's own outcome errors; {!instantiate} appends the
    shared monitors (R3 trace invariants, lifecycle automaton, crashes,
    span invariants, naming coherence, and the sanitizer and race checker
    when the mode arms them). *)

(** The instrumentation mode is the scheduler's canonical
    {!Ntcs_sim.Sched.Mode} record, threaded explicitly through every build —
    a module-level flag would itself be the ambient shared state rule R8
    forbids.

    [sanitize]: the buffer-pool sanitizer, armed declaratively via
    {!Ntcs_sim.World.Config}; aliasing violations — poison hits, double
    and foreign releases, rejected releases — fail the schedule, leaks at
    teardown are reported as [pool.sanitizer.leak] trace events but not
    failed on (stopped virtual time legitimately strands in-flight
    buffers).

    [races]: the happens-before checker ({!Check_race}), armed by this
    library on any world whose config asks for it; any [race.conflict] it
    reports fails the schedule. *)
module Mode = Ntcs_sim.Sched.Mode

(** How a scenario's schedule tree is explored, and what counts as done. *)
type contract =
  | Exhaustive
      (** the whole tree must drain within the cap, and must branch *)
  | Soak
      (** the tree is effectively unbounded (fault-plane retry timers breed
          ties forever): truncation is accepted once enough failure-free
          schedules have run *)

type scenario = {
  sc_name : string;
  sc_contract : contract;
  sc_crashes_expected : bool;
      (** a simulated process crash is the expected outcome, not a
          violation *)
  sc_recursion_limit : int option;
      (** the R3 recursion bound checked on every schedule, if any *)
  sc_from : int;
  sc_until : int;
      (** ties inside [[sc_from, sc_until)] are branched on; the boot
          before and the steady-state maintenance after run in default
          order *)
  sc_make : Mode.t -> Ntcs_sim.World.t * (unit -> string list);
      (** build a fresh world for this mode and return it with the body
          that drives the exchange and reports its outcome errors *)
}

val registry : scenario list
(** Every scenario, in report order:
    - [first-send] (exhaustive): §6.1 first send across a prime gateway
      (chained open + splice);
    - [break-ns] (exhaustive): §6.3 name-server partition under the LCM
      guard;
    - [fault-partition-heal]: partition the service's machine away (plus
      lossy links), heal 4s later; the app converges on the retry policy;
    - [fault-crash-restart]: §3.5 crash and restart of a located module;
      the stale address heals through the address-fault oracle;
    - [fault-ns-partition-guard]: §6.3 NS partition from the fault plane,
      guard on — recursion bounded, guard engaged;
    - [fault-ns-partition-noguard]: the same partition, guard off — the
      paper's divergence must reproduce (crashes expected);
    - [naming-shard-route]: four shards, all owners alive — cached
      resolution hits, and a non-owner relays the owner's stamped answer
      in one hop;
    - [naming-stale-splice]: §3.5 relocation racing a cached lookup — the
      owner's generation bump retires cached copies, splice repair heals
      the stale address;
    - [naming-shard-loss]: the probe name's shard owner crashes for good;
      resolution survives through replica failover. *)

val instantiate : Mode.t -> scenario -> Ntcs_sim.World.t * (unit -> string list)
(** A fresh world for the scenario under [mode], with a body that drives
    the exchange and returns every violation: the scenario's outcome errors
    followed by the shared monitors' findings. *)

val default_schedule : Mode.t -> scenario -> string * string list
(** Run the scenario once, in the scheduler's default order, under [mode]:
    the rendered trace ({!Ntcs_sim.Trace.dump}) and {!instantiate}'s
    violations. *)
