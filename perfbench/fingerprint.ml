(* Host fingerprint stamped on every result. Two results are comparable
   only when every host field matches: a number measured on another
   machine, core count or runtime setting is not a baseline. The commit
   identifies the code and is expected to differ between the two sides
   of a comparison, so it is recorded but not matched. *)

type t = {
  nproc : int;
  domains : int;  (** [Domain.recommended_domain_count ()] *)
  cpu_model : string;
  ocaml : string;
  ocamlrunparam : string;
  hostname : string;
  commit : string;
}

let host_fields t =
  [
    ("nproc", string_of_int t.nproc);
    ("domains", string_of_int t.domains);
    ("cpu_model", t.cpu_model);
    ("ocaml", t.ocaml);
    ("ocamlrunparam", t.ocamlrunparam);
    ("hostname", t.hostname);
  ]

(* The host fields on which [a] and [b] differ, as (field, a, b). *)
let mismatches a b =
  List.filter_map
    (fun ((k, va), (_, vb)) -> if va = vb then None else Some (k, va, vb))
    (List.combine (host_fields a) (host_fields b))

let matches a b = mismatches a b = []

let to_json t =
  Json.Obj
    (List.map (fun (k, v) -> (k, Json.Str v)) (host_fields t) @ [ ("commit", Json.Str t.commit) ])

let of_json j =
  let field k =
    match Json.member k j with
    | Some (Json.Str s) -> s
    | _ -> raise (Json.Error ("fingerprint: missing field " ^ k))
  in
  let int k =
    match int_of_string_opt (field k) with
    | Some v -> v
    | None -> raise (Json.Error ("fingerprint: bad integer in " ^ k))
  in
  {
    nproc = int "nproc";
    domains = int "domains";
    cpu_model = field "cpu_model";
    ocaml = field "ocaml";
    ocamlrunparam = field "ocamlrunparam";
    hostname = field "hostname";
    commit = field "commit";
  }

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
          Some (really_input_string ic (in_channel_length ic)))

(* /proc files report length 0, so they are read line by line. *)
let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
      let rec go acc = match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc in
      Fun.protect ~finally:(fun () -> close_in ic) (fun () -> go [])

let cpu_model () =
  let prefix = "model name" in
  match
    List.find_opt
      (fun l -> String.length l >= String.length prefix && String.sub l 0 (String.length prefix) = prefix)
      (read_lines "/proc/cpuinfo")
  with
  | Some l -> (
      match String.index_opt l ':' with
      | Some i -> String.trim (String.sub l (i + 1) (String.length l - i - 1))
      | None -> "unknown")
  | None -> "unknown"

let nproc () =
  match Unix.open_process_in "nproc 2>/dev/null" with
  | exception Unix.Unix_error _ -> Domain.recommended_domain_count ()
  | ic ->
      let v = try int_of_string_opt (String.trim (input_line ic)) with End_of_file -> None in
      ignore (Unix.close_process_in ic);
      Option.value v ~default:(Domain.recommended_domain_count ())

(* The git commit when run from a clone; otherwise (a plain source
   export) a digest of the sources under [dirs], so results of different
   code still carry different stamps. *)
let commit ~dirs =
  let git_head () =
    match read_file ".git/HEAD" with
    | None -> None
    | Some head -> (
        let head = String.trim head in
        let ref_prefix = "ref: " in
        if String.length head > 5 && String.sub head 0 5 = ref_prefix then
          let r = String.sub head 5 (String.length head - 5) in
          match read_file (Filename.concat ".git" r) with
          | Some h -> Some (String.trim h)
          | None ->
              (* packed refs: "<hash> <ref>" lines *)
              List.find_map
                (fun l ->
                  match String.split_on_char ' ' l with
                  | [ h; name ] when name = r -> Some h
                  | _ -> None)
                (read_lines ".git/packed-refs")
        else Some head)
  in
  match git_head () with
  | Some h -> h
  | None ->
      let rec files dir =
        match Sys.readdir dir with
        | exception Sys_error _ -> []
        | entries ->
            Array.sort compare entries;
            Array.to_list entries
            |> List.concat_map (fun e ->
                   let p = Filename.concat dir e in
                   if e <> "" && (e.[0] = '.' || e.[0] = '_') then []
                   else if Sys.is_directory p then files p
                   else [ p ])
      in
      let digests =
        List.concat_map files dirs |> List.map (fun p -> p ^ ":" ^ Digest.to_hex (Digest.file p))
      in
      "tree-" ^ Digest.to_hex (Digest.string (String.concat "\n" digests))

let collect ~source_dirs =
  {
    nproc = nproc ();
    domains = Domain.recommended_domain_count ();
    cpu_model = cpu_model ();
    ocaml = Sys.ocaml_version;
    ocamlrunparam = Option.value (Sys.getenv_opt "OCAMLRUNPARAM") ~default:"";
    hostname = Unix.gethostname ();
    commit = commit ~dirs:source_dirs;
  }
