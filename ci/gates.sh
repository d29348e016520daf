#!/usr/bin/env bash
# Source-level gates: facts about the tree no test can state. Run from
# the repo root (`bash ci/gates.sh`); CI's `lint` job and
# `.claude/skills/verify/SKILL.md` both call this file. Each gate
# prints its name when it fails; the script exits non-zero at the end.
#
# What is *not* here, because a named suite already fails on the
# regression (PR 21 dropped the spelling greps that stood for them):
#   * a second spelling of F(U) beside `f_ms_from`      -> tests/engine_matches_exact.rs::exact_rescore_is_one_body
#   * a second GMM seed expression `(1-λ)·min(r)+λ·d`   -> tests/fused_build_matches_passes.rs (row bests and seed vs separate passes)
#   * a second whole-matrix finiteness scan             -> tests/fused_build_matches_passes.rs::recorded_verdict_is_the_row_major_scan
#   * a ledger row that clones its key                  -> admission::tests::ledger_rows_are_fixed_size (`size_of`), crates/service/tests/memory_plateau.rs
#   * a second λ range check                            -> `Instance`'s fields are private and `try_new` is its one
#                                                          literal; persist::codec::tests::lambda_out_of_range_is_rejected_not_asserted
#   * retired names (`VecDeque` scheduler, `greedy_max_sum_eager`,
#     `struct OracleAdapter`): a rename defeats them and the gates
#     below state what they stood for (one scheduler, one definition
#     per solver, one builder).
set -u
cd "$(dirname "$0")/.."
fail=0
gate() { # gate NAME ACTUAL OP EXPECTED
  if ! test "$2" "$3" "$4"; then
    echo "gate failed: $1 (got $2, want $3 $4)" >&2
    fail=1
  fi
}
# Code lines of the given files up to their test module (tests sit at
# the end of each file), comment lines dropped.
nontest() { for f in "$@"; do sed '/#\[cfg(test)\]/,$d' "$f" | grep -vE '^\s*//'; done; }
calls() { grep -oF -- "$1" | wc -l; }
rs() { find "$@" -name '*.rs'; }
CORE=$(rs crates/core/src)
SERVER=$(rs crates/server/src)
SERVICE=$(rs crates/service/src)

# --- API surface ------------------------------------------------------
# One fallible entry point per layer (48 before the lattice was
# collapsed): a new suffix is a new parameter on the existing path.
gate "serving API surface" \
  "$(grep -rhoE 'pub fn (try_)?(serve|prepare|get_or)[a-z_]*' crates/core/src crates/server/src | grep -vcx 'pub fn prepared')" -le 22
# ROADMAP item 7's ratchet: `pub` items per crate may only fall. Lower
# the number when you delete one; never raise it.
while read -r crate max; do
  gate "pub items in crates/$crate/src" \
    "$(grep -rhE '^\s*pub (fn|struct|enum|trait|type|const|static|mod) ' "crates/$crate/src" | wc -l)" -le "$max"
done <<'EOF'
core 361
server 92
service 55
relquery 145
EOF

# One measurement generation below `e2e/`: the declared benches are the
# files on disk, and each has its one recording at the repo root.
gate "[[bench]] names = crates/bench/benches/*.rs" \
  "$(sed -n '/^\[\[bench\]\]/{n;s/^name = "\(.*\)"$/\1/p}' crates/bench/Cargo.toml | sort | tr '\n' ' ')" = \
  "$(ls crates/bench/benches | sed 's/\.rs$//' | sort | tr '\n' ' ')"
gate "one BENCH_*.json per bench" "$(ls BENCH_*.json | tr '\n' ' ')" = "BENCH_coreset.json BENCH_hotpath.json "
for pair in engine_hotpath:BENCH_hotpath.json coreset_scaling:BENCH_coreset.json; do
  gate "${pair%%:*}.rs names ${pair##*:}" "$(grep -c "${pair##*:}" "crates/bench/benches/${pair%%:*}.rs")" -ge 1
done

# --- One definition each (a private or crate-level fn, defined once) --
for name in mono_score_exact mmr local_search_swap gmm_seed_f64 ms_seed mono_scores_f64; do
  gate "one definition of fn $name under crates/core/src" "$(nontest $CORE | grep -cE "fn $name[(<]")" -eq 1
done
gate "one length-prefix parser in crates/service/src" "$(nontest $SERVICE | calls 'u32::from_be_bytes')" -eq 1
for f in $CORE; do gate "$f is at most 1300 lines" "$(wc -l < "$f")" -le 1300; done

# --- One mechanism each: textual, because no type or test can say it --
# One scheduler (`claim_each`) and two fault boundaries (`Registry::fetch`,
# `solve_checked`) in the serving path.
gate "one thread::scope under crates/server/src" "$(nontest $SERVER | calls 'thread::scope(')" -eq 1
gate "fault boundaries in registry.rs + query.rs" \
  "$(nontest crates/server/src/registry.rs crates/server/src/query.rs | calls 'catch_unwind(')" -le 2
# The delta step lives in divr_core's PreparedVariant::patch, the build
# in Instance::build: the server neither validates an appended row nor
# builds a coreset anywhere else.
gate "no check_finite_item under crates/server/src" "$(nontest $SERVER | calls 'check_finite_item(')" -eq 0
# One mutation path: a journal hook exists because the serving path
# calls it. One that only tests reach is an unserved record kind, with
# its codec and its replay arm, waiting to be written.
for hook in $(nontest crates/server/src/persist/mod.rs | grep -oE 'pub\(crate\) fn log_[a-z_]+' | sed 's/.* fn //'); do
  gate "Durability::$hook is called from crates/server/src outside persist/" \
    "$(nontest $(rs crates/server/src | grep -v /persist/) | calls ".$hook(")" -ge 1
done
# One transition function: a base edit is planned once, by the front
# door's fan-out, which a live edit and a replayed one both run. The
# log mirrors no database, so nothing in persist/ validates or plans
# an edit (recovery_fuzz.rs's dropped-coreset and op-tape cells pin
# replay ≡ live; this pins that there is one body to agree with).
gate "one plan_base_edit( call under crates/server/src" "$(nontest $SERVER | calls 'plan_base_edit(')" -eq 1
gate "…and it is in query.rs" "$(nontest crates/server/src/query.rs | calls 'plan_base_edit(')" -eq 1
gate "no base_edit_applies( or plan_base_edit( under persist/" \
  "$(nontest $(rs crates/server/src/persist) | grep -cE '(base_edit_applies|plan_base_edit)\(')" -eq 0
# `PreparedCache::insert_versioned` is a forwarder kept for the two
# call sites in e2e/src/layers.rs; everything else says `insert`.
gate "insert_versioned( is called nowhere under crates/ tests/ examples/" \
  "$(grep -rF --include='*.rs' '.insert_versioned(' crates tests examples | wc -l)" -eq 0
gate "one coreset build under crates/server/src" \
  "$(nontest $SERVER | calls 'PreparedCoreset::try_build_shared_deadline(')" -eq 1
# One way to build a coreset: selection. `PreparedCoreset::insert_tuple`
# repairs a built one under a base edit, so its one caller is
# `PreparedVariant::patch` and no build can be an insertion stream again.
# Textual: the other `insert_tuple(`s are `Database`'s (`db.`) and
# `PreparedUniverse`'s — defined in engine/, called on the sub-universe
# inside coreset/prepared.rs and by patch's full-matrix arm.
gate "insert_tuple( in coreset/prepared.rs is the sub-universe's" \
  "$(nontest crates/core/src/coreset/prepared.rs | grep -vE 'fn insert_tuple|sub(_mut\(\))?\.insert_tuple\(' | calls 'insert_tuple(')" -eq 0
gate "…and elsewhere only patch's two arms call a prepared state's insert_tuple" \
  "$(nontest $(rs crates/core/src crates/server/src crates/service/src | grep -vE '/engine/|coreset/prepared\.rs$') | grep -vF 'db.insert_tuple(' | calls 'insert_tuple(')" -eq 2
gate "…both in variant.rs" "$(nontest crates/core/src/variant.rs | calls 'insert_tuple(')" -eq 2
# One byte writer: the key encoder is an alias of divr_core::ByteWriter.
gate "no struct FingerprintEncoder" "$(grep -rl 'struct FingerprintEncoder' crates | wc -l)" -eq 0
# One process-wide free list (the matrix buffers). The item, not the
# `'static` lifetime.
gate "one static Mutex under crates/core/src" \
  "$(nontest $CORE | grep -cE '^\s*(pub(\([a-z]+\))? )?static [A-Z_0-9]+: Mutex<')" -eq 1
# The (rel, dis, lambda, mode) block is described once, by
# spec::Instance: each key/wire literal is written in one place, each
# oracle tag written and read back in one file.
gate 'one "mode:coreset" under crates/server/src' "$(nontest $SERVER | calls '"mode:coreset"')" -eq 1
gate 'one "lambda" under crates/server/src' "$(nontest $SERVER | calls '"lambda"')" -eq 1
for tag in rel:const rel:attr rel:table dis:const dis:numeric dis:hamming dis:table; do
  gate "oracle tag \"$tag\" lives in one file" \
    "$(for f in $(rs crates); do nontest "$f" | grep -qF "\"$tag\"" && echo "$f"; done | wc -l)" -eq 1
done
# A key column is covered by the gap selector alone: under coreset/ the
# key distance is evaluated in one place, the gap re-scan of gaps.rs
# (tests/coreset_kernel_matches_pairwise.rs pins its answers, not that
# no all-n sweep runs beside it).
gate "key_gap_f64 called once under coreset/" "$(nontest $(rs crates/core/src/coreset) | calls 'key_gap_f64(')" -eq 1
gate "…and that call is in gaps.rs" "$(nontest crates/core/src/coreset/gaps.rs | calls 'key_gap_f64(')" -eq 1

if test "$fail" -eq 0; then echo "ci/gates.sh: all gates hold"; fi
exit "$fail"
