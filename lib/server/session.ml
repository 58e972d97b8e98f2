type kind =
  | Benign of string list
  | Attack of string
  | Chaotic of string list * Fault.Plan.t

type spec = {
  sid : int;
  tenant : Tenant.t;
  kind : kind;
  client : int;
  paying : bool;
  sseed : int64;
  arrival : float;
}

type outcome = {
  spec : spec;
  verdict : Attacks.Verdict.t;
  service_cycles : float;
  requests : int;
  fired : int;
  batch_match : bool option;
}

let kind_label = function
  | Benign _ -> "benign"
  | Attack _ -> "attack"
  | Chaotic _ -> "chaos"

let detected o =
  match o.verdict with Attacks.Verdict.Detected _ -> true | _ -> false

let cycles_of = function
  | Some (s : Machine.Exec.stats) -> Float.max 1. s.Machine.Exec.cycles
  | None -> 1.

let other_engine (served : Machine.Backend.t) =
  match served.kind with
  | Machine.Backend.Reference -> Engine.Backend.backend
  | Machine.Backend.Bytecode -> Machine.Backend.reference

(* Same verdict, same requests, and Machine.Agree finds no difference in
   the stats; the verdict's rendering stands in for the outcome. *)
let same_result (a : Apps.Dopkit.result) (b : Apps.Dopkit.result) =
  let verdict = Attacks.Verdict.to_string a.verdict in
  a.verdict = b.verdict && a.requests = b.requests
  && Option.equal
       (fun sa sb ->
         Option.is_none (Machine.Agree.first_diff (verdict, sa) (verdict, sb)))
       a.stats b.stats

let run ?backend ~(applied : Defenses.Defense.applied) (spec : spec) =
  match spec.kind with
  | Benign flow ->
      let r =
        Apps.Sessions.run_benign ?backend applied ~seed:spec.sseed ~chunks:flow
      in
      {
        spec;
        verdict = r.Apps.Dopkit.verdict;
        service_cycles = cycles_of r.Apps.Dopkit.stats;
        requests = r.Apps.Dopkit.requests;
        fired = 0;
        batch_match = None;
      }
  | Attack aname -> (
      match Apps.Sessions.find_attack aname with
      | None -> invalid_arg ("Server.Session: unknown attack " ^ aname)
      | Some (_, atk) ->
          let served =
            match backend with Some b -> b | None -> Machine.Backend.default ()
          in
          let r =
            atk.Apps.Sessions.attack ~backend:served applied ~seed:spec.sseed
          in
          (* The server harness's security claim, checked per session:
             serving the attack through the session machinery changes
             nothing about its fate.  The same exploit re-run on the
             other engine must reach the same verdict with the same
             stats, so the check is a cross-engine differential test
             rather than a replay of the served run. *)
          let batch =
            atk.Apps.Sessions.attack ~backend:(other_engine served) applied
              ~seed:spec.sseed
          in
          {
            spec;
            verdict = r.Apps.Dopkit.verdict;
            service_cycles = cycles_of r.Apps.Dopkit.stats;
            requests = r.Apps.Dopkit.requests;
            fired = 0;
            batch_match = Some (same_result r batch);
          })
  | Chaotic (flow, plan) ->
      let armed = ref None in
      let arm st = armed := Some (Fault.Inject.arm plan st) in
      let r =
        Apps.Sessions.run_benign ?backend ~arm applied ~seed:spec.sseed
          ~chunks:flow
      in
      {
        spec;
        verdict = r.Apps.Dopkit.verdict;
        service_cycles = cycles_of r.Apps.Dopkit.stats;
        requests = r.Apps.Dopkit.requests;
        fired = (match !armed with Some a -> Fault.Inject.fired a | None -> 0);
        batch_match = None;
      }
