(** Differential validation of execution engines.

    Runs identical prepared programs under the reference interpreter
    ({!Machine.Exec.run}) and the bytecode engine ({!Engine.Interp.run})
    and compares the two runs with {!Machine.Agree.first_diff}, the one
    definition of engine agreement: outcome with its fault payload,
    program output, every {!Machine.Exec.stats} counter, and the float
    cycle count bit for bit, so a reassociated or dropped charge cannot
    hide.  [test/test_engine.ml] runs these checks as tier-1 tests. *)

type mismatch = {
  case : string;  (** e.g. ["gobmk/smokestack"] or ["progen seed 17"] *)
  diff : Machine.Agree.diff;
      (** the first observable that diverged; [expected] is the
          reference interpreter's value, [actual] the bytecode
          engine's *)
}

type report = { cases : int; mismatches : mismatch list }
(** At most one mismatch per case. *)

val ok : report -> bool
val report_to_string : report -> string

val check_apps : ?pool:Sched.Pool.t -> ?fuel:int -> unit -> report
(** Every {!Apps.Spec.all} workload under both [No_defense] and the
    default Smokestack configuration.  One job per (workload, defense)
    pair; mismatches are concatenated in submission order. *)

val check_progen :
  ?pool:Sched.Pool.t ->
  ?store:Store.Cache.t ->
  ?fuel:int ->
  seed:int64 ->
  int ->
  report
(** [check_progen ~seed n] validates [n] Progen-generated programs with
    seeds [seed, seed+1, ...] (deterministic, input-free).  One job per
    seed.  With [?store], each engine's leg is served from (and
    recorded to) the store under its own engine-keyed entry, so warm
    re-validation replays both legs without executing either — the
    report is identical either way, because a decoded exec record
    carries the same rendered outcome and bit-exact stats a fresh run
    does. *)
