(** The registry of the eleven hand-written DOP exploits and the apps
    they attack: three against ProFTPD CVE-2006-5815, one each against
    Wireshark CVE-2014-2299 and the librelp PoC, and the six RIPE-style
    {!Synth} variants.

    It is the one table of these cases.  The batch harnesses
    ({!Harness.Security}, {!Harness.Crossval}) look their cases up here
    by name, and the multi-tenant server runtime (lib/server)
    multiplexes {e sessions} over the same apps — benign request flows
    with attack sessions interleaved — over prepared per-tenant
    instances.  An attack session calls the exploit's one entry point,
    so a served attack's verdict is comparable case-for-case with the
    verdict of the same exploit re-run for the same [applied] and
    [seed]. *)

type attack = {
  aname : string;
      (** Case name, e.g. ["proftpd/key-extraction"] — the row name in
          {!Harness.Security} and {!Harness.Crossval}. *)
  attack : Dopkit.exploit;
      (** The exploit's one entry point: one attempt, engine-selectable
          (default {!Machine.Backend.default}). *)
  witnesses : (string * string * string * string) list;
      (** The (buffer function, buffer slot, victim function, victim
          slot) tuples the exploit corrupts, buffer slot ["*"] for the
          wild-write channel.  Written by hand from the exploit, never
          derived from [Analysis], so {!Harness.Crossval} checks the
          analyzer against independent evidence. *)
}

type app = {
  sname : string;  (** e.g. ["proftpd"], ["synth-stack-direct"] *)
  sdescription : string;
  ssource : string;  (** MiniC source of [sprogram] *)
  sprogram : Ir.Prog.t Lazy.t;
  benign : Sutil.Simrng.t -> string list;
      (** Draw one legitimate request flow (the chunks a benign client
          would send).  Flows stay inside the target's legitimate input
          envelope so a clean run classifies as [No_effect]. *)
  sattacks : attack list;
}

val run_benign :
  ?backend:Machine.Backend.t ->
  ?arm:(Machine.Exec.state -> unit) ->
  Defenses.Defense.applied ->
  seed:int64 ->
  chunks:string list ->
  Dopkit.result
(** Run a benign flow against a prepared instance and classify the
    outcome ([goal_met] is necessarily false for a benign client).
    [?arm] is how the server runtime arms a fault plan on a chaos
    session's state. *)

val apps : app list
(** All nine session apps: proftpd, wireshark, librelp, and the six
    synthetic variants — carrying the eleven attack cases between
    them. *)

val find : string -> app option

val attacks : (app * attack) list
(** The eleven (app, attack) cases in registry order. *)

val find_attack : string -> (app * attack) option
