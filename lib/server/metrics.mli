(** Aggregation of a dispatch run into the server report: throughput,
    latency percentiles, shedding, priority classes, breaker activity
    and the security ledger.

    Latency and throughput cover {e served} sessions only (what an
    admitted client experiences); the security columns — detections,
    attack successes, batch-verdict mismatches, chaos injections —
    cover every session that executed, shed, rejected or not, because
    an attack refused admission was still an attack the fleet faced.
    Throughput prices virtual cycles at a nominal 1 GHz; wall-clock
    numbers are host properties and belong in the stderr timing footer,
    never in the (byte-reproducible) report. *)

type summary = {
  sessions : int;
  served : int;
  shed : int;
  rejected : int;  (** breaker rejections (backoff + quarantine) *)
  dropped : int;
  benign : int;  (** executed sessions by kind *)
  attacks : int;
  chaos : int;
  requests : int;  (** request chunks across served sessions *)
  total_cycles : float;
  makespan : float;  (** virtual time from first arrival to last finish *)
  rps : float;  (** served sessions per virtual second at 1 GHz *)
  p50 : float;  (** sojourn-latency percentiles, cycles *)
  p95 : float;
  p99 : float;
  mean_wait : float;
  shed_rate : float;
      (** shed / (served + shed + rejected) — the fraction of sessions
          reaching the admission queue that were refused by
          backpressure.  Dropped sessions (shard supervision losses)
          are {e not} in the denominator; see {!drop_rate}. *)
  drop_rate : float;
      (** dropped / sessions — schedule fraction lost to shard
          timeout or failure *)
  attack_sessions : int;
  attacks_admitted : int;
      (** attack sessions that reached the queue (served or shed) —
          with breakers on, the complement of what affinity denied *)
  detected : int;
  successes : int;
  detection_rate : float;
  batch_checked : int;
  batch_mismatches : int;
      (** attack sessions whose re-run on the other engine disagreed
          with the served run on verdict, requests or stats (see
          {!Session.outcome.batch_match}) — the server harness's
          headline security invariant is that this is zero *)
  chaos_fired : int;
  peak_open : int;
  degraded : int;  (** arrivals processed in degraded mode *)
  rejected_backoff : int;
  rejected_quarantine : int;
  breaker_trips : int;
  quarantined_clients : int;
  policy_delay : float;  (** backoff the breakers imposed, cycles *)
}

val of_dispatch : Dispatch.t -> summary
val table : summary -> Sutil.Texttable.t

val class_table : Dispatch.t -> Sutil.Texttable.t
(** Per-priority-class served/shed/rejected counts and latency
    percentiles — the WFQ isolation evidence. *)

val tenant_table : Tenant.t list -> Dispatch.t -> Sutil.Texttable.t
val fmt_cycles : float -> string

val percentile : float array -> float -> float
(** Nearest-rank percentile over a {e sorted} array. *)
