(* The [serve] workload: Server.Dispatch over the default nine-tenant
   fleet and Harness.Serve.default traffic (1300 sessions, 12% attack,
   6% chaos).  Admission runs in virtual time over pre-generated
   sessions, so host load is a closed loop from one caller; execution
   uses a pool of width 1. *)

type fleet = { tenants : Server.Tenant.t list; specs : Server.Session.spec list }
type t = { plain : fleet; hardened : fleet }

let traffic ~seed =
  let d = Harness.Serve.default.traffic in
  { d with Server.Traffic.root = Int64.add d.root seed }

let dispatch_config = Harness.Serve.default.dispatch

(* Set-up: build each fleet — every tenant's hardened instance — and
   generate the schedule. *)
let build_fleet ~seed (leg : Leg.t) =
  let cfg = traffic ~seed in
  let tenants = Server.Tenant.fleet ~defense:(Leg.defense leg) ~root:cfg.root () in
  List.iter (fun tenant -> ignore (Server.Tenant.prepare tenant)) tenants;
  { tenants; specs = Server.Traffic.generate cfg tenants }

let setup ~seed =
  let fleet hardened =
    build_fleet ~seed { Leg.engine = Machine.Backend.Reference; hardened }
  in
  { plain = fleet false; hardened = fleet true }

let fleet t (leg : Leg.t) = if leg.hardened then t.hardened else t.plain

(* The deterministic report: summary and per-tenant tables. *)
let report tenants (d : Server.Dispatch.t) =
  let s = Server.Metrics.of_dispatch d in
  Sutil.Texttable.render (Server.Metrics.table s)
  ^ Sutil.Texttable.render (Server.Metrics.tenant_table tenants d)

type result = { secs : float; summary : Server.Metrics.summary; text : string }

let check_dispatch name (f : fleet) (s : Server.Metrics.summary) =
  let n = List.length f.specs in
  Check.ops n;
  Check.expect ~n:s.batch_mismatches (s.batch_mismatches = 0) "serve %s: %d batch mismatches"
    name s.batch_mismatches;
  Check.expect ~n:s.dropped (s.dropped = 0) "serve %s: %d dropped sessions" name s.dropped

(* The whole schedule in one [Dispatch.run], with the output checks. *)
let run_leg ?(pool = Sched.Pool.sequential) f leg =
  let dispatch, secs =
    Clock.time (fun () ->
        Server.Dispatch.run ~pool ~backend:(Leg.backend leg) ~config:dispatch_config f.tenants
          f.specs)
  in
  let summary = Server.Metrics.of_dispatch dispatch in
  check_dispatch (Leg.name leg) f summary;
  { secs; summary; text = report f.tenants dispatch }

(* Sessions per block.  A pass executes the schedule a block at a time,
   each block on every leg in turn, so the four legs meet the host in the
   same state.  [Dispatch.execute] per block and one [Dispatch.admit]
   over the whole schedule is what [Dispatch.run] does in one call. *)
let block = 100

let rec blocks = function
  | [] -> []
  | specs -> List.filteri (fun i _ -> i < block) specs :: blocks (List.filteri (fun i _ -> i >= block) specs)

(* Report of the first pass per leg: every later pass must repeat it. *)
let reports : (string, string) Hashtbl.t = Hashtbl.create 4

(* One pass; returns the wall time of each operation, keyed by leg:
   every block's execution, and the admission. *)
let pass t =
  let per_leg = List.map (fun leg -> (leg, blocks (fleet t leg).specs)) Leg.all in
  let executed = Hashtbl.create 4 in
  let times = ref [] in
  List.iteri
    (fun b _ ->
      List.iter
        (fun (leg, bs) ->
          let f = fleet t leg in
          let (outcomes, dropped), secs =
            Clock.time (fun () ->
                Server.Dispatch.execute ~pool:Sched.Pool.sequential ~backend:(Leg.backend leg)
                  ~config:dispatch_config f.tenants (List.nth bs b))
          in
          times := ((leg, Printf.sprintf "block%02d" b), secs) :: !times;
          let o, d = Option.value ~default:([], []) (Hashtbl.find_opt executed leg) in
          Hashtbl.replace executed leg (o @ outcomes, d @ dropped))
        per_leg)
    (List.assoc (List.hd Leg.all) per_leg);
  let texts =
    List.map
      (fun leg ->
        let f = fleet t leg in
        let outcomes, dropped = Hashtbl.find executed leg in
        let d, secs =
          Clock.time (fun () -> Server.Dispatch.admit ~dropped dispatch_config outcomes)
        in
        times := ((leg, "admit"), secs) :: !times;
        let key = Leg.name leg in
        check_dispatch key f (Server.Metrics.of_dispatch d);
        let text = report f.tenants d in
        (match Hashtbl.find_opt reports key with
        | None -> Hashtbl.add reports key text
        | Some first ->
            Check.expect ~n:(List.length f.specs) (String.equal first text)
              "serve %s: report changed between passes" key);
        (leg, text))
      Leg.all
  in
  List.iter
    (fun hardened ->
      let text engine = List.assoc { Leg.engine; hardened } texts in
      Check.expect
        ~n:(List.length t.plain.specs)
        (String.equal (text Machine.Backend.Reference) (text Machine.Backend.Bytecode))
        "serve %s: ref and bytecode reports differ"
        (if hardened then "hardened" else "plain"))
    [ false; true ];
  List.rev !times
