//! Seeded input generators. Every workload's inputs come from here and
//! from nowhere else: the program under test receives only the
//! generated qualifier library, the generated programs and the request
//! mix. The seed moves constants, names, fuzz programs and order; it
//! never moves the amount of work — template counts, rule counts and mix
//! shares are fixed, so a held-out seed measures the same thing.

use stq_corpus::{grep, taint, uniq};
use stq_fuzz::GenConfig;

/// splitmix64: a tiny deterministic generator, so the benchmark's
/// streams do not depend on any other crate's RNG.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_0f57_a7be_1100)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The verdict a qualifier must get, known from how it was written —
/// never from the prover.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    Sound,
    Unsound,
    NoInvariant,
}

impl Expect {
    /// The wire slug the daemon uses for this verdict.
    pub fn slug(self) -> &'static str {
        match self {
            Expect::Sound => "sound",
            Expect::Unsound => "unsound",
            Expect::NoInvariant => "no-invariant",
        }
    }
}

/// Expected verdicts of the builtin library: every paper qualifier with
/// an invariant is sound; `untainted` and `tainted` declare none (§2.1.4).
pub const BUILTIN_EXPECT: [(&str, Expect); 8] = [
    ("pos", Expect::Sound),
    ("neg", Expect::Sound),
    ("nonzero", Expect::Sound),
    ("nonnull", Expect::Sound),
    ("untainted", Expect::NoInvariant),
    ("tainted", Expect::NoInvariant),
    ("unique", Expect::Sound),
    ("unaliased", Expect::Sound),
];

/// `examples/qualifiers/extra.q`, embedded so the benchmark's inputs are
/// fixed at build time.
pub const EXTRA_Q: &str = include_str!("../../examples/qualifiers/extra.q");

/// Expected verdicts of `extra.q`: the file documents each as proving
/// sound; `user` declares no invariant.
pub const EXTRA_EXPECT: [(&str, Expect); 5] = [
    ("nonneg", Expect::Sound),
    ("digit", Expect::Sound),
    ("boolean", Expect::Sound),
    ("kernel", Expect::Sound),
    ("user", Expect::NoInvariant),
];

/// Generated-qualifier counts per template. Fixed: the seed changes the
/// constants and the order, not how many of each there are.
const LOWER_SUMS: usize = 18;
const UPPER_SUMS: usize = 12;
const UNIQUE_LIKE: usize = 18;
const UNALIASED_LIKE: usize = 12;
const UNSOUND_SUB: usize = 4;
/// Total generated qualifiers.
pub const GENERATED: usize = LOWER_SUMS + UPPER_SUMS + UNIQUE_LIKE + UNALIASED_LIKE + UNSOUND_SUB;

/// A qualifier library: definition source plus each qualifier's
/// expected verdict, in definition order.
#[derive(Clone, Debug)]
pub struct Library {
    /// Source of the generated qualifiers only (builtins are preloaded
    /// by the session; `extra.q` is defined separately).
    pub generated_source: String,
    /// Expected verdict for every qualifier in the library, builtins and
    /// `extra.q` first, then the generated ones in definition order.
    pub expect: Vec<(String, Expect)>,
}

/// The prove library: builtins + `extra.q` + [`GENERATED`] qualifiers.
///
/// * value qualifiers with arithmetic `case` rules (bounds and sums:
///   Fourier–Motzkin work);
/// * reference qualifiers with quantified invariants (E-matching and
///   DPLL work);
/// * copies of the paper's unsound subtraction `pos` (the refutation
///   path).
///
/// Each qualifier carries a distinct vacuous conjunct `k < k+1` in its
/// invariant, so no two obligations share a cache fingerprint.
pub fn library(seed: u64) -> Library {
    let mut rng = Rng::new(seed);
    let mut kinds: Vec<u8> = Vec::with_capacity(GENERATED);
    kinds.extend(std::iter::repeat_n(0, LOWER_SUMS));
    kinds.extend(std::iter::repeat_n(1, UPPER_SUMS));
    kinds.extend(std::iter::repeat_n(2, UNIQUE_LIKE));
    kinds.extend(std::iter::repeat_n(3, UNALIASED_LIKE));
    kinds.extend(std::iter::repeat_n(4, UNSOUND_SUB));
    rng.shuffle(&mut kinds);
    // Distinct vacuous constants: a seeded base, spaced per qualifier.
    let base = 1000 + rng.below(1_000_000) * 100;
    let mut src = String::new();
    let mut expect: Vec<(String, Expect)> = BUILTIN_EXPECT
        .iter()
        .chain(&EXTRA_EXPECT)
        .map(|(n, e)| ((*n).to_owned(), *e))
        .collect();
    for (i, kind) in kinds.into_iter().enumerate() {
        let k = base + i * 7;
        let (name, text, verdict) = match kind {
            0 => {
                let name = format!("bq_lo{i}");
                let lo = rng.below(2);
                let text = format!(
                    "value qualifier {name}(int Expr E)
    case E of
        decl int Const C:
            C, where C >= {lo}
      | decl int Expr E1, E2:
            E1 + E2, where {name}(E1) && {name}(E2)
      | decl int Expr E1:
            E1, where pos(E1)
      | decl int Expr E1, E2:
            E1 * E2, where pos(E1) && pos(E2)
      | decl int Expr E1:
            -E1, where neg(E1)
      | decl int Expr E1, E2:
            E1 + E2, where {name}(E1) && pos(E2)
    invariant value(E) >= {lo} && {k} < {k1}
",
                    k1 = k + 1
                );
                (name, text, Expect::Sound)
            }
            1 => {
                let name = format!("bq_hi{i}");
                let op = ["<", "<="][rng.below(2)];
                let text = format!(
                    "value qualifier {name}(int Expr E)
    case E of
        decl int Const C:
            C, where C {op} 0
      | decl int Expr E1, E2:
            E1 + E2, where {name}(E1) && {name}(E2)
      | decl int Expr E1:
            E1, where neg(E1)
      | decl int Expr E1:
            -E1, where pos(E1)
      | decl int Expr E1, E2:
            E1 * E2, where pos(E1) && neg(E2)
      | decl int Expr E1, E2:
            E1 + E2, where {name}(E1) && neg(E2)
    invariant value(E) {op} 0 && {k} < {k1}
",
                    k1 = k + 1
                );
                (name, text, Expect::Sound)
            }
            2 => {
                let name = format!("bq_uniq{i}");
                let text = format!(
                    "ref qualifier {name}(T* LValue L)
    assign L NULL | new
    disallow L
    invariant (value(L) == NULL ||
        (isHeapLoc(value(L)) &&
         forall T** P: *P == value(L) => P == location(L))) && {k} < {k1}
",
                    k1 = k + 1
                );
                (name, text, Expect::Sound)
            }
            3 => {
                let name = format!("bq_unal{i}");
                let text = format!(
                    "ref qualifier {name}(T Var X)
    ondecl
    disallow &X
    invariant (forall T** P: *P != location(X)) && {k} < {k1}
",
                    k1 = k + 1
                );
                (name, text, Expect::Sound)
            }
            _ => {
                let name = format!("bq_sub{i}");
                let text = format!(
                    "value qualifier {name}(int Expr E)
    case E of
        decl int Const C:
            C, where C > 0
      | decl int Expr E1, E2:
            E1 - E2, where {name}(E1) && {name}(E2)
    invariant value(E) > 0 && {k} < {k1}
",
                    k1 = k + 1
                );
                (name, text, Expect::Unsound)
            }
        };
        src.push_str(&text);
        src.push('\n');
        expect.push((name, verdict));
    }
    Library {
        generated_source: src,
        expect,
    }
}

/// Which qualifier discipline a corpus program is checked under — the
/// per-experiment registry subsets of the paper's §6.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Discipline {
    /// `nonnull` only (Table 1).
    Nonnull,
    /// `untainted` + `tainted` (Table 2).
    Taint,
    /// `unique` only (§6.2).
    Unique,
    /// The whole builtin library (fuzz programs).
    Builtins,
}

impl Discipline {
    pub const ALL: [Discipline; 4] = [
        Discipline::Nonnull,
        Discipline::Taint,
        Discipline::Unique,
        Discipline::Builtins,
    ];

    pub fn index(self) -> usize {
        self as usize
    }

    /// The builtin qualifier names the discipline loads.
    pub fn quals(self) -> &'static [&'static str] {
        match self {
            Discipline::Nonnull => &["nonnull"],
            Discipline::Taint => &["untainted", "tainted"],
            Discipline::Unique => &["unique"],
            Discipline::Builtins => &[
                "pos",
                "neg",
                "nonzero",
                "nonnull",
                "untainted",
                "tainted",
                "unique",
                "unaliased",
            ],
        }
    }
}

/// One program of the checking corpus with its known answer.
#[derive(Clone, Debug)]
pub struct Program {
    pub name: String,
    pub source: String,
    pub lines: usize,
    pub discipline: Discipline,
    pub flow_sensitive: bool,
    /// Expected qualifier diagnostics, from the `stq-corpus` table
    /// constants or zero for clean-by-construction fuzz programs.
    pub expect_errors: usize,
    /// Expected casts to qualified types, where the corpus fixes them.
    pub expect_casts: Option<usize>,
}

fn program(
    name: &str,
    source: String,
    discipline: Discipline,
    flow_sensitive: bool,
    expect_errors: usize,
    expect_casts: Option<usize>,
) -> Program {
    Program {
        name: name.to_owned(),
        lines: stq_cir::pretty::count_lines(&source),
        source,
        discipline,
        flow_sensitive,
        expect_errors,
        expect_casts,
    }
}

/// Fuzz programs per corpus round.
pub const FUZZ_PER_ROUND: usize = 5;

/// The checking corpus: the paper-scale programs (fixed) plus
/// [`FUZZ_PER_ROUND`] seeded `stq-fuzz` programs. One "round" of the
/// `check-corpus` workload is this list, shuffled by seed.
pub fn corpus(seed: u64) -> Vec<Program> {
    let (_, _, _, bftpd_casts, bftpd_errors) = taint::BFTPD_TARGETS;
    let (_, _, _, mingetty_casts, mingetty_errors) = taint::MINGETTY_TARGETS;
    let (_, _, _, identd_casts, identd_errors) = taint::IDENTD_TARGETS;
    let mut out = vec![
        // Table 1 reports no remaining errors and TABLE1_CASTS casts.
        program(
            "grep-dfa",
            grep::grep_dfa_source(),
            Discipline::Nonnull,
            false,
            0,
            Some(grep::TABLE1_CASTS),
        ),
        // The cast-free variant is clean only under flow-sensitive
        // checking — by construction, no casts at all.
        program(
            "grep-dfa-direct",
            grep::grep_dfa_source_direct(),
            Discipline::Nonnull,
            true,
            0,
            Some(0),
        ),
        program(
            "bftpd",
            taint::bftpd_source(),
            Discipline::Taint,
            false,
            bftpd_errors,
            Some(bftpd_casts),
        ),
        program(
            "mingetty",
            taint::mingetty_source(),
            Discipline::Taint,
            false,
            mingetty_errors,
            Some(mingetty_casts),
        ),
        program(
            "identd",
            taint::identd_source(),
            Discipline::Taint,
            false,
            identd_errors,
            Some(identd_casts),
        ),
        // §6.2: all references validate; the initialization needs one cast.
        program(
            "grep-unique",
            uniq::grep_unique_source(),
            Discipline::Unique,
            false,
            0,
            Some(1),
        ),
    ];
    let mut rng = Rng::new(seed ^ 0xf022);
    for i in 0..FUZZ_PER_ROUND {
        let source = stq_fuzz::gen::generate_source(rng.next_u64(), &GenConfig::default());
        out.push(program(
            &format!("fuzz-{i}"),
            source,
            Discipline::Builtins,
            false,
            0,
            None,
        ));
    }
    out
}

/// What one `serve-mixed` request asks the daemon.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// `prove` of a named subset the warm cache already holds.
    Warm(Vec<usize>),
    /// `check` of one program of the serve check set.
    Check(usize),
    /// `prove` of a named subset under a budget override no request has
    /// used before, so every obligation misses and is journalled.
    Miss(Vec<usize>),
}

/// Requests per block, and each kind's fixed share of a block: about
/// 80% warm proves, 15% checks and 5% cache-missing proves.
pub const BLOCK: usize = 20;
const WARM_PER_BLOCK: usize = 16;
const CHECK_PER_BLOCK: usize = 3;
/// Qualifiers named by one warm prove and one missing prove.
pub const WARM_NAMES: usize = 4;
pub const MISS_NAMES: usize = 2;
/// Blocks in one client's request cycle.
const BLOCKS: usize = 100;

/// A seeded deck that deals every item equally often: a fresh shuffle
/// each time too few cards are left for a hand.
struct Deck {
    cards: Vec<usize>,
    size: usize,
}

impl Deck {
    fn new(size: usize) -> Deck {
        Deck {
            cards: Vec::new(),
            size,
        }
    }

    fn deal(&mut self, rng: &mut Rng, n: usize) -> Vec<usize> {
        if self.cards.len() < n {
            self.cards = (0..self.size).collect();
            rng.shuffle(&mut self.cards);
        }
        self.cards.split_off(self.cards.len() - n)
    }
}

/// One client's request cycle: [`BLOCKS`] blocks with fixed shares,
/// shuffled by seed. Names index the library, checks index
/// `check_programs`. Names and programs are dealt from seeded decks, so
/// every qualifier and every program keeps a fixed share too and a seed
/// changes only the grouping and the order.
pub fn serve_mix(seed: u64, client: usize, library: usize, check_programs: usize) -> Vec<Request> {
    let mut rng = Rng::new(seed ^ (0x5e7e_0000 + client as u64));
    let (mut warm, mut miss) = (Deck::new(library), Deck::new(library));
    let mut programs = Deck::new(check_programs);
    let mut out = Vec::with_capacity(BLOCKS * BLOCK);
    for _ in 0..BLOCKS {
        let mut block = Vec::with_capacity(BLOCK);
        for slot in 0..BLOCK {
            block.push(if slot < WARM_PER_BLOCK {
                Request::Warm(warm.deal(&mut rng, WARM_NAMES))
            } else if slot < WARM_PER_BLOCK + CHECK_PER_BLOCK {
                Request::Check(programs.deal(&mut rng, 1)[0])
            } else {
                Request::Miss(miss.deal(&mut rng, MISS_NAMES))
            });
        }
        rng.shuffle(&mut block);
        out.extend(block);
    }
    out
}
