(* The tail rule: report a timing as its median and the highest
   percentile that has at least ten samples beyond it, with the sample
   count. *)

(* Candidate percentiles in tenths of a percent, so the ">= 10 samples
   beyond" test is exact integer arithmetic. *)
let tail_candidates = [ 999; 990; 950; 900; 500 ]

(* The highest candidate percentile with at least ten of [n] samples
   beyond it, in percent; [None] when even the median has fewer than
   ten samples above it. *)
let tail_percentile n =
  List.find_opt (fun p10 -> n * (1000 - p10) >= 10_000) tail_candidates
  |> Option.map (fun p10 -> float_of_int p10 /. 10.)

type tail = { p50 : float; tail : float; tail_pct : float; samples : int }

let tail_of xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  Option.map
    (fun pct ->
      {
        p50 = Server.Metrics.percentile a 50.;
        tail = Server.Metrics.percentile a pct;
        tail_pct = pct;
        samples = n;
      })
    (tail_percentile n)
