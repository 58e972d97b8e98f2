(* The four legs every workload runs: each engine, unhardened and
   hardened with Smokestack's default configuration (AES-10).  The
   end-to-end metrics are one wall time per leg. *)

type t = { engine : Machine.Backend.kind; hardened : bool }

let all =
  [
    { engine = Machine.Backend.Reference; hardened = false };
    { engine = Machine.Backend.Reference; hardened = true };
    { engine = Machine.Backend.Bytecode; hardened = false };
    { engine = Machine.Backend.Bytecode; hardened = true };
  ]

let engine_name = function
  | Machine.Backend.Reference -> "ref"
  | Machine.Backend.Bytecode -> "bytecode"

let name l = engine_name l.engine ^ if l.hardened then ".hardened" else ".plain"
let metric l = name l ^ "_s"
let backend l = Machine.Backend.find l.engine
let harden_config = Smokestack.Config.default

let defense l =
  if l.hardened then Defenses.Defense.Smokestack harden_config
  else Defenses.Defense.No_defense
