(* Properties of the XOR output compactor on RANDOM circuits: the unit
   tests cover hand-built cases, these cover the space. *)

(* Compactor wrapping commutes with simulation: pin value = XOR of group
   members, for random circuits and arities. *)
let prop_compactor_commutes =
  QCheck.Test.make ~name:"compactor pins = XOR of members (random circuits)" ~count:30
    QCheck.(pair (int_range 1 100_000) (int_range 1 5))
    (fun (seed, arity) ->
      let net = Generators.random_logic ~gates:40 ~pis:5 ~pos:4 ~seed in
      let wrapped, mapping = Compactor.wrap net ~arity in
      let pats = Pattern.random (Rng.create seed) ~npis:5 ~count:32 in
      let plain = Logic_sim.responses net pats in
      let compacted = Logic_sim.responses wrapped pats in
      let ok = ref true in
      Array.iteri
        (fun c group ->
          for p = 0 to Pattern.count pats - 1 do
            let expect =
              Array.fold_left (fun acc oi -> acc <> Bitvec.get plain.(oi) p) false group
            in
            if Bitvec.get compacted.(c) p <> expect then ok := false
          done)
        mapping.Compactor.groups;
      !ok)

let suite =
  [ ("seq_invariants", List.map QCheck_alcotest.to_alcotest [ prop_compactor_commutes ]) ]
