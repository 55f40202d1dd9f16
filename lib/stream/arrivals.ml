open Qt_util

type process =
  | Poisson of { rate : float }
  | Bursty of { rate : float; on_mean : float; off_mean : float }

let process_of_string s ~rate ~on_mean ~off_mean =
  match String.lowercase_ascii (String.trim s) with
  | "poisson" -> Ok (Poisson { rate })
  | "bursty" -> Ok (Bursty { rate; on_mean; off_mean })
  | other -> Error (Printf.sprintf "unknown arrival process %S (poisson|bursty)" other)

type horizon = Duration of float | Count of int

type arrival = { at : float; template : int; klass : Sla.klass }

let validate ~process ~horizon ~templates ~theta =
  let bad fmt = Printf.ksprintf invalid_arg fmt in
  (match process with
  | Poisson { rate } -> if rate <= 0. then bad "Arrivals.generate: rate %g <= 0" rate
  | Bursty { rate; on_mean; off_mean } ->
      if rate <= 0. then bad "Arrivals.generate: rate %g <= 0" rate;
      if on_mean <= 0. || off_mean <= 0. then
        bad "Arrivals.generate: bursty phase means must be positive");
  (match horizon with
  | Duration d -> if d <= 0. then bad "Arrivals.generate: duration %g <= 0" d
  | Count n -> if n <= 0 then bad "Arrivals.generate: count %d <= 0" n);
  if templates <= 0 then bad "Arrivals.generate: template pool %d <= 0" templates;
  if theta < 0. then bad "Arrivals.generate: zipf theta %g < 0" theta

let generate ~seed ~process ~horizon ~templates ~theta ~mix =
  validate ~process ~horizon ~templates ~theta;
  let rng = Rng.create seed in
  (* Interarrival draw; bursty skips over silent off-phases, drawing a
     fresh on-phase length after each one.  [rem_on] is the time left in
     the current on-phase ([infinity] for Poisson). *)
  let rem_on =
    ref (match process with Poisson _ -> infinity | Bursty { on_mean; _ } -> Rng.exponential rng ~mean:on_mean)
  in
  let next_gap () =
    match process with
    | Poisson { rate } -> Rng.exponential rng ~mean:(1. /. rate)
    | Bursty { rate; on_mean; off_mean } ->
        let gap = ref (Rng.exponential rng ~mean:(1. /. rate)) in
        let idle = ref 0. in
        while !gap > !rem_on do
          gap := !gap -. !rem_on;
          idle := !idle +. !rem_on +. Rng.exponential rng ~mean:off_mean;
          rem_on := Rng.exponential rng ~mean:on_mean
        done;
        rem_on := !rem_on -. !gap;
        !idle +. !gap
  in
  let draw at =
    let template = Rng.zipf rng ~n:templates ~theta - 1 in
    let klass = Rng.pick_weighted rng mix in
    { at; template; klass }
  in
  let out = ref [] in
  (match horizon with
  | Count n ->
      let t = ref 0. in
      for _ = 1 to n do
        t := !t +. next_gap ();
        out := draw !t :: !out
      done
  | Duration d ->
      let t = ref (next_gap ()) in
      while !t <= d do
        out := draw !t :: !out;
        t := !t +. next_gap ()
      done);
  List.rev !out

let trace_header = "# qtsim stream trace v1: <at-seconds> <template> <class>"

let to_trace arrivals =
  let buf = Buffer.create (64 + (32 * List.length arrivals)) in
  Buffer.add_string buf trace_header;
  Buffer.add_char buf '\n';
  List.iter
    (fun a ->
      Buffer.add_string buf
        (Printf.sprintf "%.9f %d %s\n" a.at a.template (Sla.to_string a.klass)))
    arrivals;
  Buffer.contents buf

let of_trace ~templates s =
  let lines = String.split_on_char '\n' s in
  let rec go lineno acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
        let line = String.trim line in
        if line = "" || line.[0] = '#' then go (lineno + 1) acc rest
        else
          let err fmt = Printf.ksprintf (fun m -> Error (Printf.sprintf "trace line %d: %s" lineno m)) fmt in
          match String.split_on_char ' ' line |> List.filter (fun f -> f <> "") with
          | [ at; template; klass ] -> (
              match (float_of_string_opt at, int_of_string_opt template, Sla.of_string klass) with
              | None, _, _ -> err "bad arrival time %S" at
              | _, None, _ -> err "bad template index %S" template
              | _, _, None -> err "unknown SLA class %S" klass
              | Some at, Some template, Some klass ->
                  if Float.is_nan at || at < 0. || at = infinity then err "arrival time %g out of range" at
                  else if template < 0 then err "negative template index %d" template
                  else if template >= templates then
                    err "template index %d outside a pool of %d templates" template templates
                  else go (lineno + 1) ({ at; template; klass } :: acc) rest)
          | _ -> err "expected <at> <template> <class>")
  in
  match go 1 [] lines with
  | Error _ as e -> e
  | Ok arrivals -> Ok (List.stable_sort (fun a b -> Float.compare a.at b.at) arrivals)
