(** One client session: its specification (who, what, when) and the
    result of serving it.

    A session is the server runtime's unit of work.  Its [spec] is pure
    data produced by {!Traffic} — tenant, kind, seed, virtual arrival
    time — so the whole workload can be generated, sharded, replayed
    and compared across runs without executing anything.  {!run}
    executes one session against the tenant's prepared instance on the
    calling domain: a fresh machine state per session (built from the
    session seed's entropy stream), the request flow as the VM's input,
    and the observable verdict classified exactly as the batch
    harnesses do. *)

type kind =
  | Benign of string list  (** a legitimate request flow *)
  | Attack of string
      (** an {!Apps.Sessions} case name, e.g. ["proftpd/bot"] *)
  | Chaotic of string list * Fault.Plan.t
      (** a benign flow served while an infrastructure fault plan is
          armed on the instance (mem/intr families — RNG-source plans
          need a generator and stay with the chaos harness) *)

type spec = {
  sid : int;  (** dense, 0-based; submission order *)
  tenant : Tenant.t;
  kind : kind;
  client : int;
      (** stable client identity — attack sessions come from a small
          attacker pool so session affinity can accumulate state *)
  paying : bool;  (** paying-tier client (drives the priority class) *)
  sseed : int64;  (** drives entropy and the attack's layout guess *)
  arrival : float;  (** virtual arrival time, in VM cycles *)
}

type outcome = {
  spec : spec;
  verdict : Attacks.Verdict.t;
  service_cycles : float;
      (** measured VM cycles for the session's run (>= 1; crafts that
          were geometrically impossible never ran and cost 1) *)
  requests : int;  (** request chunks delivered *)
  fired : int;  (** chaos injections that actually happened *)
  batch_match : bool option;
      (** attacks only: the same exploit, re-run for the same instance
          and seed on the {e other} engine (bytecode when served on the
          reference interpreter, and vice versa), reached the same
          verdict after the same requests, and {!Machine.Agree} found
          no difference in its stats — a cross-engine differential
          test of every served attack *)
}

val kind_label : kind -> string
(** ["benign"], ["attack"] or ["chaos"]. *)

val detected : outcome -> bool

val run :
  ?backend:Machine.Backend.t ->
  applied:Defenses.Defense.applied ->
  spec ->
  outcome
(** Serve one session on [backend] (default {!Machine.Backend.default}).
    An attack session runs twice, once on each engine, for
    [batch_match]. *)
