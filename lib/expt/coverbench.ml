(* Greedy-vs-exact covering differential: the measurement behind the
   EXPERIMENTS.md resolution table and the CI agreement gate.

   For each circuit, the same seeded stream of failing datalogs is
   diagnosed twice — once against a session configured with the greedy
   cover, once with the exact (implicit hitting-set) backend — and the
   multiplet sizes are compared trial by trial.  Validation is off so
   the multiplet {e is} the cover: the comparison isolates the covering
   step, which is the thing the two backends differ on.

   Soundness of the exact backend shows up as invariants of the rows:
   [larger] must be 0 (the exact cover is seeded with the greedy result
   as an upper bound and can never exceed it), and [proved] counts the
   trials where the hitting-set loop completed with a minimality
   certificate.  The regression gate ([min_exact_agreement]) floors the
   agreement rate — the fraction of trials where greedy already matched
   the proven minimum — and dies on any [larger] trial. *)

type row = {
  circuit : string;
  trials : int;
  greedy_mean : float;  (* mean cover size, greedy backend *)
  exact_mean : float;  (* mean cover size, exact backend *)
  agree : int;  (* trials with equal cover sizes *)
  improved : int;  (* trials where exact found a strictly smaller cover *)
  larger : int;  (* exact larger than greedy — impossible by design *)
  proved : int;  (* trials with a minimality certificate *)
  fallbacks : int;  (* budget exhaustions (fell back to greedy) *)
  greedy_ms : float;  (* wall clock over all trials, greedy backend *)
  exact_ms : float;  (* wall clock over all trials, exact backend *)
}

type report = {
  trials : int;
  multiplicity : int;
  seed : int;
  node_budget : int;
  rows : row list;
}

let find_circuit name =
  match Generators.find_suite name with
  | Some n -> n
  | None -> (
    match Generators.find_tier name with
    | Some n -> n
    | None -> invalid_arg ("Coverbench: unknown circuit or tier " ^ name))

(* Distinct failing datalogs from one seeded stream — both backends see
   the identical trial list. *)
let make_dlogs net pats ~trials ~multiplicity ~seed =
  let rng = Rng.create seed in
  let expected = Logic_sim.responses net pats in
  let rec make attempts =
    if attempts = 0 then failwith "Coverbench: no failing defect combination found"
    else begin
      let defects = Injection.random_defects rng net Injection.default_mix multiplicity in
      let observed = Injection.observed_responses net pats defects in
      let dlog = Datalog.of_responses ~expected ~observed in
      if Datalog.num_failing dlog = 0 then make (attempts - 1) else dlog
    end
  in
  List.init trials (fun _ -> make 50)

let run_circuit ~trials ~multiplicity ~seed ~node_budget circuit =
  let net = find_circuit circuit in
  let pats = Campaign.test_set net in
  let dlogs = make_dlogs net pats ~trials ~multiplicity ~seed in
  (* Validation off: the multiplet is exactly the chosen cover, and the
     wall-clock difference is the covering step, not refinement. *)
  let config = { Noassume.default_config with validate = false } in
  let session_with cover =
    Session.create
      ~config:
        {
          Session.default_config with
          Session.domains = Some 1;
          cover;
          cover_budget = node_budget;
        }
      net pats
  in
  let arm cover =
    let session = session_with cover in
    let t0 = Obs.now_ns () in
    let results =
      List.map (fun dlog -> Noassume.diagnose_session ~config session dlog) dlogs
    in
    (results, (Obs.now_ns () -. t0) /. 1e6)
  in
  let greedy_results, greedy_ms = arm Session.Greedy in
  let exact_results, exact_ms = arm Session.Exact in
  let sizes rs = List.map (fun r -> List.length r.Noassume.multiplet) rs in
  let gsizes = sizes greedy_results and esizes = sizes exact_results in
  let mean l =
    if l = [] then 0.0
    else float_of_int (List.fold_left ( + ) 0 l) /. float_of_int (List.length l)
  in
  let count p l = List.length (List.filter p l) in
  let pairs = List.combine gsizes esizes in
  {
    circuit;
    trials;
    greedy_mean = mean gsizes;
    exact_mean = mean esizes;
    agree = count (fun (g, e) -> g = e) pairs;
    improved = count (fun (g, e) -> e < g) pairs;
    larger = count (fun (g, e) -> e > g) pairs;
    proved = count (fun r -> r.Noassume.cover_minimum <> None) exact_results;
    fallbacks = count (fun r -> not r.Noassume.cover_complete) exact_results;
    greedy_ms;
    exact_ms;
  }

let run ?(circuits = [ "rnd1k"; "rnd2k" ]) ?(trials = 12) ?(multiplicity = 3)
    ?(seed = 77) ?(node_budget = Session.default_cover_budget) () =
  let rows =
    List.map (run_circuit ~trials ~multiplicity ~seed ~node_budget) circuits
  in
  { trials; multiplicity; seed; node_budget; rows }

(* Fraction of exact-backend trials where greedy already matched the
   proven minimum — what the regression gate floors. *)
let agreement r =
  let agree = List.fold_left (fun acc (row : row) -> acc + row.agree) 0 r.rows in
  let total = List.fold_left (fun acc (row : row) -> acc + row.trials) 0 r.rows in
  if total = 0 then 1.0 else float_of_int agree /. float_of_int total

let any_larger r = List.exists (fun row -> row.larger > 0) r.rows

let to_table r =
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "Greedy vs exact minimum cover (%d trials/circuit, multiplicity %d, budget \
            %d nodes)"
           r.trials r.multiplicity r.node_budget)
      [
        ("circuit", Table.Left);
        ("greedy size", Table.Right);
        ("exact size", Table.Right);
        ("agree", Table.Right);
        ("improved", Table.Right);
        ("larger", Table.Right);
        ("proved", Table.Right);
        ("fallbacks", Table.Right);
        ("greedy ms", Table.Right);
        ("exact ms", Table.Right);
      ]
  in
  List.iter
    (fun row ->
      Table.add_row table
        [
          row.circuit;
          Table.cell_float ~decimals:2 row.greedy_mean;
          Table.cell_float ~decimals:2 row.exact_mean;
          Printf.sprintf "%d/%d" row.agree row.trials;
          Table.cell_int row.improved;
          Table.cell_int row.larger;
          Table.cell_int row.proved;
          Table.cell_int row.fallbacks;
          Table.cell_float ~decimals:1 row.greedy_ms;
          Table.cell_float ~decimals:1 row.exact_ms;
        ])
    r.rows;
  table

let json_of_report r =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf
    "{\n  \"trials\": %d,\n  \"multiplicity\": %d,\n  \"seed\": %d,\n\
    \  \"node_budget\": %d,\n  \"agreement\": %.4f,\n  \"rows\": [\n"
    r.trials r.multiplicity r.seed r.node_budget (agreement r);
  List.iteri
    (fun i row ->
      Printf.bprintf buf
        "    {\"circuit\": %S, \"trials\": %d, \"greedy_mean\": %.4f, \
         \"exact_mean\": %.4f, \"agree\": %d, \"improved\": %d, \"larger\": %d, \
         \"proved\": %d, \"fallbacks\": %d, \"greedy_ms\": %.3f, \"exact_ms\": %.3f}%s\n"
        row.circuit row.trials row.greedy_mean row.exact_mean row.agree row.improved
        row.larger row.proved row.fallbacks row.greedy_ms row.exact_ms
        (if i = List.length r.rows - 1 then "" else ","))
    r.rows;
  Buffer.add_string buf "  ]\n}\n";
  Buffer.contents buf

let write_json ~path r =
  let oc = open_out path in
  output_string oc (json_of_report r);
  close_out oc
