open Ddlock_graph

type result = { db : Db.t; named : (string * Transaction.t) list }
type error = { line : int; message : string }

let pp_error ppf e =
  Format.fprintf ppf "line %d: %s" e.line e.message

exception Parse_error of error
exception Lex_error of error

let fail line fmt =
  Format.kasprintf (fun message -> raise (Parse_error { line; message })) fmt

type token = Eof | Ident | Lbrace | Rbrace | Less | Semi | Kw_site | Kw_txn

(* A cursor over the source that holds one token, read but not yet
   consumed.  Identifiers are runs of [A-Za-z0-9_.'-]; punctuation is
   { } < ; and # starts a comment. *)
type cursor = {
  src : string;
  mutable pos : int;  (* the first byte not yet read *)
  mutable line : int;  (* the line of [pos] *)
  mutable tok : token;
  mutable tok_line : int;  (* the token's line; 0 at the end of input *)
  mutable start : int;  (* an identifier's first byte *)
  mutable len : int;  (* and its length *)
}

let is_ident = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '\'' | '-' -> true
  | _ -> false

let text c = String.sub c.src c.start c.len

(* The token of the identifier at [c.start], read in place. *)
let word c =
  let s = c.src and k = c.start in
  match c.len with
  | 4 when s.[k] = 's' && s.[k + 1] = 'i' && s.[k + 2] = 't' && s.[k + 3] = 'e'
    ->
      Kw_site
  | 3 when s.[k] = 't' && s.[k + 1] = 'x' && s.[k + 2] = 'n' -> Kw_txn
  | _ -> Ident

let rec advance c =
  let n = String.length c.src in
  if c.pos >= n then begin
    c.tok <- Eof;
    c.tok_line <- 0
  end
  else
    match c.src.[c.pos] with
    | '\n' ->
        c.line <- c.line + 1;
        c.pos <- c.pos + 1;
        advance c
    | ' ' | '\t' | '\r' ->
        c.pos <- c.pos + 1;
        advance c
    | '#' ->
        while c.pos < n && c.src.[c.pos] <> '\n' do
          c.pos <- c.pos + 1
        done;
        advance c
    | ch ->
        c.tok_line <- c.line;
        c.pos <- c.pos + 1;
        c.tok <-
          (match ch with
          | '{' -> Lbrace
          | '}' -> Rbrace
          | '<' -> Less
          | ';' -> Semi
          | _ when is_ident ch ->
              c.start <- c.pos - 1;
              while c.pos < n && is_ident c.src.[c.pos] do
                c.pos <- c.pos + 1
              done;
              c.len <- c.pos - c.start;
              word c
          | _ ->
              raise
                (Lex_error
                   {
                     line = c.line;
                     message = Format.asprintf "unexpected character %C" ch;
                   }))

let at_end c = if c.tok = Eof then fail 0 "unexpected end of input"

let expect c what tok =
  at_end c;
  if c.tok <> tok then fail c.tok_line "expected %s" what;
  advance c

let ident c what =
  at_end c;
  if c.tok <> Ident then fail c.tok_line "expected %s" what;
  let s = text c in
  advance c;
  s

(* A step [L e] or [U e] as its node key [2·entity + op]. *)
let step c db =
  at_end c;
  if c.tok <> Ident then fail c.tok_line "expected step (L or U)";
  let op_start = c.start and op_len = c.len in
  advance c;
  let line = c.tok_line in
  at_end c;
  if c.tok <> Ident then fail c.tok_line "expected entity name";
  let name = text c in
  let e =
    match Db.find_entity db name with
    | Some e -> e
    | None -> fail line "unknown entity %S" name
  in
  advance c;
  match if op_len = 1 then c.src.[op_start] else ' ' with
  | 'L' -> 2 * e
  | 'U' -> (2 * e) + 1
  | _ -> fail line "expected L or U, got %S" (String.sub c.src op_start op_len)

let sites c =
  let sites = ref [] in
  while c.tok = Kw_site do
    advance c;
    let name = ident c "site name" in
    expect c "'{'" Lbrace;
    let ents = ref [] in
    while c.tok <> Rbrace do
      at_end c;
      if c.tok <> Ident then fail c.tok_line "expected entity name or '}'";
      ents := text c :: !ents;
      advance c
    done;
    advance c;
    sites := (name, List.rev !ents) :: !sites
  done;
  if !sites = [] then fail c.tok_line "no site declarations";
  match Db.create (List.rev !sites) with
  | db -> db
  | exception Invalid_argument m -> fail 0 "%s" m

(* A transaction's statements as chains of node keys, each ended by -1,
   in [keys.(0 .. len-1)]; [keys] grows as needed. *)
type chains = { mutable keys : int array; mutable len : int }

let push b k =
  if b.len = Array.length b.keys then begin
    let a = Array.make (2 * b.len) 0 in
    Array.blit b.keys 0 a 0 b.len;
    b.keys <- a
  end;
  b.keys.(b.len) <- k;
  b.len <- b.len + 1

let txn c db b =
  advance c;
  let name = ident c "transaction name" in
  expect c "'{'" Lbrace;
  b.len <- 0;
  while c.tok <> Rbrace do
    if c.tok = Eof then fail 0 "unexpected end of input in txn block";
    push b (step c db);
    while c.tok = Less do
      advance c;
      push b (step c db)
    done;
    expect c "';'" Semi;
    push b (-1)
  done;
  advance c;
  let labels, arcs = Builder.number db b.keys b.len in
  match Transaction.make db labels arcs with
  | Ok t -> (name, t)
  | Error es ->
      fail 0 "invalid transaction %s: %s" name
        (String.concat "; " (List.map (Transaction.error_to_string db) es))

(* The source is read once, front to back.  A lexical error anywhere
   wins over every other error, so after any other error the rest of
   the source is read for one. *)
let parse src =
  let c =
    { src; pos = 0; line = 1; tok = Eof; tok_line = 0; start = 0; len = 0 }
  in
  try
    advance c;
    let db = sites c in
    let b = { keys = Array.make 64 0; len = 0 } and named = ref [] in
    while c.tok <> Eof do
      if c.tok <> Kw_txn then fail c.tok_line "expected 'txn'";
      named := txn c db b :: !named
    done;
    if !named = [] then fail 0 "no transactions declared";
    Ok { db; named = List.rev !named }
  with
  | Lex_error e -> Error e
  | Parse_error e -> (
      try
        while c.tok <> Eof do
          advance c
        done;
        Error e
      with Lex_error l -> Error l)

let parse_exn src =
  match parse src with
  | Ok r -> r
  | Error e -> invalid_arg (Format.asprintf "Parser.parse_exn: %a" pp_error e)

let system_of_result r = System.create (List.map snd r.named)

let to_source db named =
  let buf = Buffer.create 256 in
  for s = 0 to Db.site_count db - 1 do
    Buffer.add_string buf ("site " ^ Db.site_name db s ^ " {");
    List.iter
      (fun e -> Buffer.add_string buf (" " ^ Db.entity_name db e))
      (Db.entities_of_site db s);
    Buffer.add_string buf " }\n"
  done;
  List.iter
    (fun (name, t) ->
      Buffer.add_string buf ("txn " ^ name ^ " {\n");
      let step_str u =
        let nd = Transaction.node t u in
        (match nd.Node.op with Node.Lock -> "L " | Node.Unlock -> "U ")
        ^ Db.entity_name db nd.Node.entity
      in
      List.iter
        (fun (u, v) ->
          Buffer.add_string buf
            ("  " ^ step_str u ^ " < " ^ step_str v ^ ";\n"))
        (Digraph.edges (Transaction.hasse t));
      (* Isolated entities (both nodes unconnected to anything else) still
         need a mention; the L < U arc is always in the Hasse diagram, so
         nothing extra is required. *)
      Buffer.add_string buf "}\n")
    named;
  Buffer.contents buf
