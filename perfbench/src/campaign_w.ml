(* The [campaign] workload: Store.Campaign over 400 Progen programs per
   leg, cold into a fresh disk store and then warm from it.  Many tiny
   programs, so the front end, hardening, per-run preparation and store
   writes dominate. *)

let count = 400

(* Workload seed [s] runs Progen seeds [1000 + 400 s, 1000 + 400 (s+1)). *)
let first_seed seed = Int64.add 1000L (Int64.mul (Int64.of_int count) seed)

let config ~seed (leg : Leg.t) =
  Store.Campaign.config ~seed:(first_seed seed)
    ?harden:(if leg.hardened then Some Leg.harden_config else None)
    ~engine:leg.engine ~count ()

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let fresh = ref 0

(* A new, empty store directory under [out]. *)
let fresh_store ~out label =
  incr fresh;
  let dir = Filename.concat out (Printf.sprintf "store-%d-%s-%d" (Unix.getpid ()) label !fresh) in
  rm_rf dir;
  (dir, Store.Cache.open_disk dir)

type t = { seed : int64; out : string }

(* Set-up: open a fresh store for each leg and size the campaign
   against it, as a resumable run does before it starts. *)
let setup ~seed ~out =
  List.iter
    (fun leg ->
      let dir, store = fresh_store ~out (Leg.name leg) in
      let left = Store.Campaign.remaining ~store (config ~seed leg) in
      Check.expect (left = count) "campaign %s: fresh store reports %d programs left" (Leg.name leg) left;
      rm_rf dir)
    Leg.all;
  { seed; out }

type result = {
  cold_s : float;
  warm_s : float;
  report : Store.Campaign.report;
  hits : int;
  misses : int;
}

(* [cfg] cold into [store], then warm from it, with the output checks. *)
let cold_warm ?(pool = Sched.Pool.sequential) ~store ~label (cfg : Store.Campaign.config) =
  let n = cfg.count in
  let report, cold_s = Clock.time (fun () -> Store.Campaign.run ~pool ~store cfg) in
  Store.Cache.reset_stats store;
  let warm, warm_s = Clock.time (fun () -> Store.Campaign.run ~pool ~store cfg) in
  let st = Store.Cache.stats store in
  Check.ops n;
  Check.expect ~n:(n - report.exited_zero) (report.exited_zero = n)
    "campaign %s: %d of %d programs exit 0" label report.exited_zero n;
  Check.expect ~n (st.hits = n && st.misses = 0) "campaign %s: warm phase hit %d, missed %d"
    label st.hits st.misses;
  Check.expect ~n (String.equal warm.digest report.digest)
    "campaign %s: warm digest %s differs from cold %s" label warm.digest report.digest;
  { cold_s; warm_s; report; hits = st.hits; misses = st.misses }

(* The whole leg on a fresh store. *)
let run_leg ?pool t leg =
  let dir, store = fresh_store ~out:t.out (Leg.name leg) in
  let r = cold_warm ?pool ~store ~label:(Leg.name leg) (config ~seed:t.seed leg) in
  rm_rf dir;
  r

(* Programs per block.  A pass runs the range a block at a time, each
   block on every leg in turn (cold, then warm), so the four legs meet
   the host in the same state. *)
let block = 100

let block_config ~seed (leg : Leg.t) b =
  let whole = config ~seed leg in
  { whole with seed = Int64.add whole.seed (Int64.of_int (b * block)); count = block }

(* Digest of each block in the first pass: every later pass must
   repeat it. *)
let digests : (string, string) Hashtbl.t = Hashtbl.create 16

(* One pass over fresh stores; returns the wall time of each operation,
   keyed by leg: every block's cold and warm run. *)
let pass t =
  let stores = List.map (fun leg -> (leg, fresh_store ~out:t.out (Leg.name leg))) Leg.all in
  let times = ref [] in
  for b = 0 to (count / block) - 1 do
    let results =
      List.map
        (fun (leg, (_, store)) ->
          let label = Printf.sprintf "%s block %d" (Leg.name leg) b in
          let r = cold_warm ~store ~label (block_config ~seed:t.seed leg b) in
          times :=
            ((leg, Printf.sprintf "warm%d" b), r.warm_s)
            :: ((leg, Printf.sprintf "cold%d" b), r.cold_s)
            :: !times;
          (match Hashtbl.find_opt digests label with
          | None -> Hashtbl.add digests label r.report.digest
          | Some d ->
              Check.expect ~n:block (String.equal d r.report.digest)
                "campaign %s: digest changed between passes" label);
          (leg, r.report.digest))
        stores
    in
    (* The engines agree bit for bit, so their campaign digests do too. *)
    List.iter
      (fun hardened ->
        let d engine = List.assoc { Leg.engine; hardened } results in
        Check.expect ~n:block
          (String.equal (d Machine.Backend.Reference) (d Machine.Backend.Bytecode))
          "campaign block %d %s: ref and bytecode digests differ" b
          (if hardened then "hardened" else "plain"))
      [ false; true ]
  done;
  List.iter (fun (_, (dir, _)) -> rm_rf dir) stores;
  List.rev !times
