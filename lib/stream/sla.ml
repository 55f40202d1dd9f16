type klass = Interactive | Batch | Besteffort

let all = [ Interactive; Batch; Besteffort ]

let to_string = function
  | Interactive -> "interactive"
  | Batch -> "batch"
  | Besteffort -> "besteffort"

let of_string = function
  | "interactive" -> Some Interactive
  | "batch" -> Some Batch
  | "besteffort" -> Some Besteffort
  | _ -> None

type spec = { klass : klass; deadline : float; priority : int }

let default_spec = function
  | Interactive -> { klass = Interactive; deadline = 1.5; priority = 10 }
  | Batch -> { klass = Batch; deadline = 6.0; priority = 5 }
  | Besteffort -> { klass = Besteffort; deadline = infinity; priority = 0 }

type mix = (klass * float) list

let default_mix = [ (Interactive, 0.5); (Batch, 0.3); (Besteffort, 0.2) ]

(* Shared "k=v,k=v" parser for mixes and deadline overrides. *)
let parse_pairs s =
  let parts =
    String.split_on_char ',' s
    |> List.map String.trim
    |> List.filter (fun p -> p <> "")
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | p :: rest -> (
        match String.index_opt p '=' with
        | None -> Error (Printf.sprintf "expected CLASS=VALUE, got %S" p)
        | Some i -> (
            let name = String.trim (String.sub p 0 i) in
            let v = String.trim (String.sub p (i + 1) (String.length p - i - 1)) in
            match (of_string name, float_of_string_opt v) with
            | None, _ -> Error (Printf.sprintf "unknown SLA class %S" name)
            | _, None -> Error (Printf.sprintf "bad value %S for class %s" v name)
            | Some k, Some f -> go ((k, f) :: acc) rest))
  in
  go [] parts

let mix_of_string s =
  match parse_pairs s with
  | Error _ as e -> e
  | Ok pairs ->
      if List.exists (fun (_, w) -> w < 0. || Float.is_nan w) pairs then
        Error "mix weights must be non-negative"
      else
        let weight k =
          List.fold_left (fun a (k', w) -> if k' = k then a +. w else a) 0. pairs
        in
        let mix = List.map (fun k -> (k, weight k)) all in
        if List.exists (fun (_, w) -> w > 0.) mix then Ok mix
        else Error "at least one mix weight must be positive"

let deadlines_of_string s =
  match parse_pairs s with
  | Error _ as e -> e
  | Ok pairs ->
      if List.exists (fun (_, d) -> d <= 0. || Float.is_nan d) pairs then
        Error "deadlines must be positive (seconds)"
      else
        Ok
          (fun base k ->
            let spec = base k in
            match List.assoc_opt k pairs with
            | None -> spec
            | Some d -> { spec with deadline = d })
