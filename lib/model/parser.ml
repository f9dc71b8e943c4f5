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

let[@inline] is_ident = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '\'' | '-' -> true
  | _ -> false

let text c = String.sub c.src c.start c.len

(* The token of the identifier at [c.start], read in place. *)
let[@inline] word c =
  let s = c.src and k = c.start in
  match c.len with
  | 4 when s.[k] = 's' && s.[k + 1] = 'i' && s.[k + 2] = 't' && s.[k + 3] = 'e'
    ->
      Kw_site
  | 3 when s.[k] = 't' && s.[k + 1] = 'x' && s.[k + 2] = 'n' -> Kw_txn
  | _ -> Ident

(* The byte of [s] at [i] < [String.length s]. *)
let at s i = String.unsafe_get s i

let advance c =
  let s = c.src in
  let n = String.length s and pos = ref c.pos and line = ref c.line in
  let blank = ref true in
  while !blank && !pos < n do
    match at s !pos with
    | '\n' ->
        incr line;
        incr pos
    | ' ' | '\t' | '\r' -> incr pos
    | '#' ->
        while !pos < n && at s !pos <> '\n' do
          incr pos
        done
    | _ -> blank := false
  done;
  c.line <- !line;
  if !pos >= n then begin
    c.pos <- !pos;
    c.tok <- Eof;
    c.tok_line <- 0
  end
  else begin
    let ch = at s !pos in
    c.tok_line <- !line;
    incr pos;
    c.tok <-
      (match ch with
      | '{' -> Lbrace
      | '}' -> Rbrace
      | '<' -> Less
      | ';' -> Semi
      | _ when is_ident ch ->
          c.start <- !pos - 1;
          while !pos < n && is_ident (at s !pos) do
            incr pos
          done;
          c.len <- !pos - c.start;
          word c
      | _ ->
          raise
            (Lex_error
               {
                 line = !line;
                 message = Format.asprintf "unexpected character %C" ch;
               }));
    c.pos <- !pos
  end

let[@inline] at_end c = if c.tok = Eof then fail 0 "unexpected end of input"

let[@inline] expect c what tok =
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
  let e = Db.find_entity_sub db c.src ~pos:c.start ~len:c.len in
  if e < 0 then fail line "unknown entity %S" (text c);
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

let txn c db b =
  advance c;
  let name = ident c "transaction name" in
  expect c "'{'" Lbrace;
  while c.tok <> Rbrace do
    if c.tok = Eof then fail 0 "unexpected end of input in txn block";
    Builder.add b (step c db);
    while c.tok = Less do
      advance c;
      Builder.add b (step c db)
    done;
    expect c "';'" Semi;
    Builder.add b (-1)
  done;
  advance c;
  match Builder.compile db b with
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
    let b = Builder.buffer () and named = ref [] in
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
