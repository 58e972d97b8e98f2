(** The experiment registry: the paper's evaluation (E1–E8) and every
    extension (E9–E19), in report order, behind one record shape.

    One run of an entry yields everything the experiment reports: its
    EXPERIMENTS.md section, the tables written as [BENCH_<name>.json],
    and a few headline lines for the terminal.  [smokestackc
    experiments] runs them; with no ids it regenerates
    EXPERIMENTS.md byte for byte, at any [--jobs] and on either engine,
    provided [Engine.Backend.install] and [Analysis.Validate.install]
    have run. *)

type result = {
  markdown : string;  (** section body, below the heading and claim *)
  tables : (string * string * Sutil.Texttable.t) list;
      (** [(json name, title, table)], one [BENCH_<name>.json] each *)
  summary : string list;  (** headline lines, one per invariant *)
}

type entry = {
  id : string;  (** command-line name, e.g. ["table1"] *)
  heading : string;  (** e.g. ["E1 — Table I: randomness source rates"] *)
  claim : string;  (** what the paper (or the extension) predicts *)
  run : pool:Sched.Pool.t -> result;
}

val all : entry list
(** E1 … E19, in report order. *)

val section : entry -> result -> string
(** [## heading], the claim, then the measured body. *)

val report : (entry * result) list -> string
(** The document header followed by each entry's {!section}. *)

val write_json : dir:string -> result -> unit
(** Write each of [result.tables] as [dir/BENCH_<name>.json]. *)
