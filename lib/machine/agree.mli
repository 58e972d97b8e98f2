(** Engine agreement: the one field-by-field comparison of two runs —
    the rendered outcome (so a fault's address counts), the output,
    every {!Exec.stats} counter, and the cycle count on its bit
    pattern, so a reassociated or dropped charge shows as a one-ulp
    drift.  A run is [(rendered outcome, stats)], the shape both a
    fresh run ({!of_run}) and a cached store record carry. *)

type diff = {
  field : string;
      (** ["outcome"], ["output"], ["instr_count"], ["call_count"],
          ["max_depth"], ["max_frame_bytes"], ["rss_bytes"] or
          ["cycles"]: the first, in this order, that differs *)
  expected : string;  (** first run's value ([%h] for cycles) *)
  actual : string;  (** second run's value *)
}

val of_run : Exec.outcome * Exec.stats -> string * Exec.stats
val first_diff : string * Exec.stats -> string * Exec.stats -> diff option

val runs : Exec.outcome * Exec.stats -> Exec.outcome * Exec.stats -> diff option
(** {!first_diff} on two fresh runs. *)

val diff_to_string : diff -> string
(** e.g. ["cycles differs: 0x1.8p+4 vs 0x1.8000000000001p+4"]. *)
