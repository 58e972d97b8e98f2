(** E16 — artifact store: cold campaign, then warm replay.

    One Progen campaign (200 programs from seed 1000, on the
    process-default engine) runs twice against a fresh on-disk store in
    a temporary directory: the cold pass misses and writes every key,
    the warm pass must hit every key, and both report digests must be
    identical.  The directory is removed afterwards. *)

type t = {
  cold : Store.Campaign.report;
  cold_stats : Store.Cache.stats;
  warm : Store.Campaign.report;
  warm_stats : Store.Cache.stats;
}

val run : ?pool:Sched.Pool.t -> unit -> t

val digests_identical : t -> bool

val stats_table : t -> Sutil.Texttable.t
(** Hits, misses, writes and digest per phase. *)

val to_markdown : t -> string
