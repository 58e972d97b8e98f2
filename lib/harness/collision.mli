(** E9 — entropy accounting: predicted vs measured brute-force rate.

    A librelp attempt succeeds when the attacker's guessed
    allNames-to-keyPtr {e distance} equals the drawn one and that
    distance is reachable by the single snprintf gap jump.  Guess and
    reality are drawn from the same distribution, so the per-attempt
    success probability is the collision probability of the reachable
    distance distribution, sampled from the P-BOX the way the runtime
    decodes it.  The measured rate comes from [trials] static-knowledge
    attacks against one Smokestack build. *)

type t = {
  predicted : float;  (** per-attempt success, distance collision *)
  trials : int;
  measured : float;  (** per-attempt success over [trials] *)
  distinct_layouts : int;  (** full-frame layouts of the callee *)
}

val run : unit -> t
(** Sequential and deterministic (fixed sampling and attack seeds). *)

val table : t -> Sutil.Texttable.t
val to_markdown : t -> string
