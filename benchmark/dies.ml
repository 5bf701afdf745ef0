(* Inputs: the circuit, failing dies drawn from a seed, and the fixed
   seed of the test sets and the quality panel. *)

(* As the CLI's --circuit finds a built-in circuit. *)
let circuit name =
  match Generators.find_suite name with
  | Some net -> net
  | None -> invalid_arg ("unknown circuit " ^ name)

type die = {
  idx : int;
  defects : Defect.t list;  (** Ground truth: the defects that left a trace. *)
  text : string;  (** The datalog as a tester file; parsed where it is used. *)
}

(* Die [i] carries [1 + i mod 4] defects drawn from the default mix and
   is redrawn until the test set fails it, as a tester only sends
   failing parts to diagnosis.  Ground truth keeps only the defects
   that shape the responses, as the campaigns score. *)
let make net pats rng n =
  let expected = Logic_sim.responses net pats in
  let rngs = Array.init n (fun _ -> Rng.split rng) in
  Parallel.mapi_array
    (fun idx rng ->
      let k = 1 + (idx mod 4) in
      let rec draw tries =
        if tries = 0 then failwith "injected defects never failed the test set"
        else begin
          let defects = Injection.random_defects rng net Injection.default_mix k in
          let observed = Injection.observed_responses net pats defects in
          let dlog = Datalog.of_responses ~expected ~observed in
          if Datalog.num_failing dlog = 0 then draw (tries - 1)
          else
            {
              idx;
              defects = Injection.contributing net pats defects;
              text = Datalog.to_text dlog;
            }
        end
      in
      draw 100)
    rngs

(* Seeds the random test sets and the quality panel's dies.  Neither
   depends on the run's seed: a design has one test set, and a panel
   that is the same in every run makes the quality metrics of two runs
   compare exactly — they move only when diagnosis changes. *)
let design_seed = 2008

let parse net pats d =
  Datalog.of_text ~npatterns:(Pattern.count pats) ~npos:(Netlist.num_pos net) d.text

let score net d (r : Noassume.result) =
  Metrics.evaluate net ~injected:d.defects ~callouts:(Noassume.callout_nets r)
