//! # dbre-sql
//!
//! SQL substrate built from scratch for the DBRE reproduction: a lexer,
//! a recursive-descent parser for the legacy-SQL subset the paper
//! manipulates, a [`catalog::Catalog`] acting as the DBMS *data
//! dictionary* (the source of the paper's constraint sets `K` and `N`),
//! and a tuple-at-a-time [`executor`] used to validate that the
//! pipeline's counting primitives match real SQL `COUNT(DISTINCT …)`
//! semantics.
//!
//! [`SqlBackend`] ([`counts`]) serves the pipeline's `‖·‖` probes as
//! generated SQL. Each statement is parsed and resolved; the two shapes
//! generation produces run on the dictionary-code kernels, and any
//! other statement runs whole on the tuple interpreter.
//!
//! The grammar intentionally admits hyphenated identifiers
//! (`zip-code`, `project-name`, `Ass-Dept`) because the paper's worked
//! example — like many legacy dictionaries — uses them; the subset has
//! no arithmetic so no ambiguity arises.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod catalog;
pub mod counts;
pub mod error;
pub mod executor;
pub mod lexer;
pub mod parser;
pub mod token;

pub use ast::{ColumnRef, Expr, Query, Select, Statement};
pub use catalog::Catalog;
pub use counts::{count_join_sql, count_side_sql, join_stats_via_sql, SqlBackend};
pub use error::{SqlError, SqlResult};
pub use executor::{execute_query, run_sql, ResultSet};
pub use parser::{parse_query, parse_script, parse_statement};
