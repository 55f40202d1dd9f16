(* Golden harness: runs the pinned qtsim commands of a case table and
   checks the bytes they write.

     golden.exe QTSIM CASES MD5...

   Each line of CASES is blank, a # comment, or one of

     OUT ARG...   run `QTSIM ARG...` with stdout written to OUT (- discards
                  it); the run must exit 0
     same A B     artifacts A and B must have equal bytes

   Arguments are split on spaces; there is no quoting.  Cases run in order
   in the scratch directory CASES.out, emptied first, so the files that
   flags such as --metrics, --trace or --record write land there, and a
   later case can read what an earlier one wrote.  Each MD5 file is in
   `md5sum -c` format; every file it names must have been written by a
   case and must match.  Exits 1 after naming each failed check, 2 on a
   malformed table. *)

type case = Run of string * string list | Same of string * string

let read_lines file =
  In_channel.with_open_text file In_channel.input_all
  |> String.split_on_char '\n'
  |> List.mapi (fun i line -> (Printf.sprintf "%s:%d" file (i + 1), line))

let malformed where line =
  Printf.eprintf "golden: %s: malformed line: %s\n" where line;
  exit 2

let parse_case (where, line) =
  match List.filter (( <> ) "") (String.split_on_char ' ' line) with
  | [] -> None
  | w :: _ when w.[0] = '#' -> None
  | [ "same"; a; b ] -> Some (where, Same (a, b))
  | "same" :: _ | [ _ ] -> malformed where line
  | out :: argv -> Some (where, Run (out, argv))

(* [(where, artifact, digest)] for a `<32 hex digits>  <file>` line. *)
let parse_pin (where, line) =
  let n = String.length line in
  if line = "" then None
  else if n > 34 && String.index_opt line ' ' = Some 32 && line.[33] = ' '
  then Some (where, String.sub line 34 (n - 34), String.sub line 0 32)
  else malformed where line

(* qtsim's stderr is passed through; it is silent when a case passes. *)
let run qtsim out argv =
  let fd file flags = Unix.openfile file (O_CLOEXEC :: flags) 0o644 in
  let stdin = fd "/dev/null" [ O_RDONLY ] in
  let stdout =
    fd (if out = "-" then "/dev/null" else out) [ O_WRONLY; O_CREAT; O_TRUNC ]
  in
  let argv = Array.of_list (qtsim :: argv) in
  let pid = Unix.create_process qtsim argv stdin stdout Unix.stderr in
  Unix.close stdin;
  Unix.close stdout;
  match snd (Unix.waitpid [] pid) with
  | WEXITED 0 -> None
  | WEXITED n -> Some (Printf.sprintf "exited %d" n)
  | WSIGNALED n | WSTOPPED n -> Some (Printf.sprintf "killed by signal %d" n)

let contents file =
  if Sys.file_exists file then
    Some (In_channel.with_open_bin file In_channel.input_all)
  else None

let () =
  match List.tl (Array.to_list Sys.argv) with
  | qtsim :: cases_file :: md5_files ->
    let cases = List.filter_map parse_case (read_lines cases_file) in
    let pins =
      List.concat_map
        (fun f -> List.filter_map parse_pin (read_lines f))
        md5_files
    in
    let qtsim =
      if Filename.is_relative qtsim then Filename.concat (Sys.getcwd ()) qtsim
      else qtsim
    in
    let scratch = cases_file ^ ".out" in
    if Sys.file_exists scratch then
      Sys.readdir scratch
      |> Array.iter (fun f -> Sys.remove (Filename.concat scratch f))
    else Sys.mkdir scratch 0o755;
    Sys.chdir scratch;
    let failures = ref 0 in
    let fail where fmt =
      incr failures;
      Printf.printf ("%s: " ^^ fmt ^^ "\n%!") where
    in
    List.iter
      (function
        | where, Run (out, argv) -> (
          match run qtsim out argv with
          | None -> ()
          | Some why -> fail where "`qtsim %s` %s" (String.concat " " argv) why)
        | where, Same (a, b) -> (
          match (contents a, contents b) with
          | Some x, Some y when x = y -> ()
          | Some _, Some _ -> fail where "%s and %s differ" a b
          | _ -> fail where "same %s %s: an artifact was not written" a b))
      cases;
    (* A digest mismatch is reported at the case that names the file, as
       its stdout or in its argv. *)
    let writer file =
      List.find_map
        (function
          | where, Run (out, argv) when out = file || List.mem file argv ->
            Some where
          | _ -> None)
        cases
    in
    List.iter
      (fun (pin, file, expected) ->
        if not (Sys.file_exists file) then
          fail pin "%s is pinned but no case wrote it" file
        else
          let actual = Digest.to_hex (Digest.file file) in
          if actual <> expected then
            fail
              (Option.value (writer file) ~default:pin)
              "%s: md5 %s, pinned %s in %s" file actual expected pin)
      pins;
    if !failures > 0 then begin
      Printf.printf "golden: %d failed check(s); artifacts in %s\n" !failures
        (Sys.getcwd ());
      exit 1
    end
  | _ ->
    prerr_endline "usage: golden.exe QTSIM CASES MD5...";
    exit 2
