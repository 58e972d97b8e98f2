(** Unified interface over all evaluated defenses.

    The security experiments run each attack against every defense
    through this one type, so a row of the paper's penetration-test
    comparison is literally a fold over {!all}. *)

type t =
  | No_defense
  | Stack_base  (** per-run stack base pad; static layout *)
  | Forrest_pad  (** per-build random frame padding *)
  | Static_perm  (** per-build alloca permutation *)
  | Canary  (** classic terminator canary *)
  | Smokestack of Smokestack.Config.t  (** per-invocation permutation *)

val name : t -> string

val all : ?smokestack:Smokestack.Config.t -> unit -> t list
(** All six, Smokestack last (default config {!Smokestack.Config.default}). *)

type applied = {
  defense : t;
  prog : Ir.Prog.t;  (** transformed copy; the input program is untouched *)
  fresh_state : Crypto.Entropy.t -> Machine.Exec.state;
      (** prepare a runnable state, installing whatever runtime the
          defense needs; per-run randomness comes from the entropy
          source, so distinct sources model service restarts *)
  pbox_bytes : int;  (** 0 except for Smokestack *)
}

val apply : ?seed:int64 -> t -> Ir.Prog.t -> applied
(** Compile-time application.  [seed] fixes the build-time random
    choices (Forrest pad sizes, static permutation, P-BOX row
    shuffles). *)
