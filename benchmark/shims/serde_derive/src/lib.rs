//! Offline stand-in for `serde_derive`.
//!
//! `#[derive(Serialize, Deserialize)]` expands to an empty impl of the
//! shim's marker trait. `#[serde(..)]` is registered as a helper
//! attribute, so every attribute the tree uses is accepted and ignored.
//! There is no `syn` offline; the item header is read straight off the
//! token stream.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// The item's name, its generic parameters split into the declaration
/// (`<'a, T: Bound>`, defaults dropped) and the use (`<'a, T>`), and its
/// `where` clause.
struct Header {
    name: String,
    decl: String,
    args: String,
    bounds: String,
}

fn header(input: TokenStream) -> Header {
    let mut tokens = input.into_iter().peekable();
    // Skip attributes, visibility and anything else before the keyword.
    for tok in tokens.by_ref() {
        if let TokenTree::Ident(id) = &tok {
            if matches!(id.to_string().as_str(), "struct" | "enum" | "union") {
                break;
            }
        }
    }
    let name = match tokens.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde_derive shim: expected a type name, found {other:?}"),
    };
    let mut params: Vec<Vec<TokenTree>> = Vec::new();
    if matches!(tokens.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        tokens.next();
        let mut depth = 1usize;
        let mut current = Vec::new();
        for tok in tokens.by_ref() {
            if let TokenTree::Punct(p) = &tok {
                match p.as_char() {
                    '<' => depth += 1,
                    '>' => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    ',' if depth == 1 => {
                        params.push(std::mem::take(&mut current));
                        continue;
                    }
                    _ => {}
                }
            }
            current.push(tok);
        }
        if !current.is_empty() {
            params.push(current);
        }
    }
    let mut decl = Vec::new();
    let mut args = Vec::new();
    for param in &params {
        // Drop a default (`T = X`): it is not allowed on an impl.
        let end = param
            .iter()
            .position(|t| matches!(t, TokenTree::Punct(p) if p.as_char() == '='))
            .unwrap_or(param.len());
        // Through a stream, so that a lifetime's tick stays joined to its name.
        decl.push(param[..end].iter().cloned().collect::<TokenStream>().to_string());
        // The parameter's own name: `'a`, `T`, or `N` after `const`.
        let mut name = String::new();
        for tok in &param[..end] {
            match tok {
                TokenTree::Punct(p) if p.as_char() == '\'' => name.push('\''),
                TokenTree::Ident(id) if id.to_string() == "const" => {}
                TokenTree::Ident(id) => {
                    name.push_str(&id.to_string());
                    break;
                }
                TokenTree::Group(g) if g.delimiter() == Delimiter::None => {}
                _ => break,
            }
        }
        args.push(name);
    }
    // A `where` clause runs up to the braced body, or to the `;` of a
    // tuple struct, whose fields come before it.
    let bounds: TokenStream = tokens
        .skip_while(|t| !matches!(t, TokenTree::Ident(id) if id.to_string() == "where"))
        .take_while(|t| match t {
            TokenTree::Group(g) => g.delimiter() != Delimiter::Brace,
            TokenTree::Punct(p) => p.as_char() != ';',
            _ => true,
        })
        .collect();
    let wrap =
        |v: Vec<String>| if v.is_empty() { String::new() } else { format!("<{}>", v.join(", ")) };
    Header { name, decl: wrap(decl), args: wrap(args), bounds: bounds.to_string() }
}

/// The functions named by `#[serde(default = "path")]` anywhere in the
/// item. The real derive calls them; the stand-in mentions them, so that a
/// private one does not turn into a dead-code warning on every build.
fn default_fns(stream: TokenStream, found: &mut Vec<String>) {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    for (i, token) in tokens.iter().enumerate() {
        match token {
            TokenTree::Group(group) => default_fns(group.stream(), found),
            TokenTree::Ident(id) if id.to_string() == "default" => {
                let is_eq =
                    matches!(tokens.get(i + 1), Some(TokenTree::Punct(p)) if p.as_char() == '=');
                if let (true, Some(TokenTree::Literal(path))) = (is_eq, tokens.get(i + 2)) {
                    found.push(path.to_string().trim_matches('"').to_string());
                }
            }
            _ => {}
        }
    }
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let h = header(input);
    format!("impl{} ::serde::Serialize for {}{} {} {{}}", h.decl, h.name, h.args, h.bounds)
        .parse()
        .expect("serde_derive shim: generated impl parses")
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let mut defaults = Vec::new();
    default_fns(input.clone(), &mut defaults);
    let mentions: String =
        defaults.iter().map(|path| format!("const _: () = {{ let _ = {path}; }};")).collect();
    let h = header(input);
    let decl = match h.decl.strip_prefix('<') {
        Some(rest) => format!("<'de, {rest}"),
        None => "<'de>".to_string(),
    };
    format!(
        "impl{} ::serde::Deserialize<'de> for {}{} {} {{}} {mentions}",
        decl, h.name, h.args, h.bounds
    )
    .parse()
    .expect("serde_derive shim: generated impl parses")
}
