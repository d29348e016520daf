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
PAPER=$(rs crates/paper/src)
SERVER=$(rs crates/server/src)
SERVICE=$(rs crates/service/src)

# --- API surface ------------------------------------------------------
# One fallible entry point per layer (48 before the lattice was
# collapsed): a new suffix is a new parameter on the existing path.
gate "serving API surface" \
  "$(grep -rhoE 'pub fn (try_)?(serve|prepare|get_or)[a-z_]*' crates/core/src crates/server/src | grep -vcx 'pub fn prepared')" -le 16
# The `pub` ratchet: `pub` items per crate may only fall. Lower the
# number when you delete one; never raise it.
while read -r crate max; do
  gate "pub items in crates/$crate/src" \
    "$(grep -rhE '^\s*pub (fn|struct|enum|trait|type|const|static|mod) ' "crates/$crate/src" | wc -l)" -le "$max"
done <<'EOF'
core 196
paper 110
server 91
service 55
relquery 120
EOF

# The seam between the served engine and the paper's analysis: the
# daemon's crates never depend on `divr-paper` (a `divr-core` edge to it
# would be a cycle, which cargo refuses on its own).
for toml in crates/server/Cargo.toml crates/service/Cargo.toml; do
  gate "$toml names no divr-paper" "$(grep -c 'divr-paper' "$toml")" -eq 0
done

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
for name in mono_score_exact gmm_seed_f64 ms_seed mono_scores_f64; do
  gate "one definition of fn $name under crates/core/src" "$(nontest $CORE | grep -cE "fn $name[(<]")" -eq 1
done
for name in mmr local_search_swap; do
  gate "one definition of fn $name under crates/paper/src" "$(nontest $PAPER | grep -cE "fn $name[(<]")" -eq 1
done
gate "one length-prefix parser in crates/service/src" "$(nontest $SERVICE | calls 'u32::from_be_bytes')" -eq 1
# One JSON tokenizer (`json::Reader`): one value dispatch and one string
# unescaper in the crate; the frame path reads through it with no tree
# of the rows (`wire::Frame`), so server.rs never calls `json::parse`.
gate "one JSON tokenizer in crates/service/src" \
  "$(nontest $SERVICE | grep -cE "Some\(b'-' \| b'0'\.\.=b'9'\)|b'u' =>")" -eq 2
gate "…and the frame path builds no tree: no json::parse( in server.rs" \
  "$(nontest crates/service/src/server.rs | calls 'json::parse(')" -eq 0
for f in $CORE $PAPER; do gate "$f is at most 1300 lines" "$(wc -l < "$f")" -le 1300; done

# --- One mechanism each: textual, because no type or test can say it --
# One scheduler (`claim_each`) and two fault boundaries (`Registry::fetch`,
# `solve_checked`) in the serving path.
gate "one thread::scope under crates/server/src" "$(nontest $SERVER | calls 'thread::scope(')" -eq 1
# One fan-out in divr_core (`engine/matrix.rs::run_dealt`) and one spawn
# decision (`fans_out`): every worker count is `threads` or 1 as
# `fans_out` says, from a named unit cost — never a size literal of its
# own, nor the free list's 1 MB floor
# (engine::matrix::tests::spawn_decisions_match_the_old_predicates pins
# the counts).
gate "one thread::scope under crates/core/src" "$(nontest $CORE | calls 'thread::scope(')" -eq 1
gate "…and it is in engine/matrix.rs" "$(nontest crates/core/src/engine/matrix.rs | calls 'thread::scope(')" -eq 1
gate "worker counts come from fans_out" \
  "$(nontest $(rs crates/core/src/engine crates/core/src/coreset) | grep -E '\b(workers|threads)\b' | grep -cE '4_?096|SPARE_MIN_LEN')" -eq 0
# One way to hold δ_dis: a prepared universe owns an `Arc` of it.
gate "no DistOracle" "$(git grep -c 'DistOracle' -- crates src tests examples | wc -l)" -eq 0
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
# The log and nothing else: `Durability` indexes no serving state. A
# checkpoint reads each resident universe back out of its cache key
# (`UniverseSpec::from_key`), so no key → spec map grows between
# checkpoints (crates/server/tests/durability_footprint.rs measures it).
gate "no HashMap or BTreeMap in persist/mod.rs" \
  "$(nontest crates/server/src/persist/mod.rs | grep -cE '\b(HashMap|BTreeMap)\b')" -eq 0
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
# One evaluation path: `eval_query` is `stream_query` drained, so no
# per-query-kind eager evaluator sits beside the stream.
gate "no fn eval_cq under crates/relquery/src" "$(grep -rE 'fn eval_cq\b' crates/relquery/src | wc -l)" -eq 0
gate "one coreset build from tuples under crates/server/src" \
  "$(nontest $SERVER | calls 'PreparedCoreset::try_build_shared_deadline(')" -eq 1
gate "…and one from encoded rows" \
  "$(nontest $SERVER | calls 'PreparedCoreset::try_build_rows_deadline(')" -eq 1
gate "…both in spec.rs (Instance::build)" \
  "$(nontest crates/server/src/spec.rs | calls 'PreparedCoreset::try_build_')" -eq 2
# A coreset entry holds each row once, as encoded bytes (shared with a
# serve frame's cache key) beside float columns: no field of
# `PreparedCoreset` is a tuple or exact-score per row again
# (frame_footprint's `a_coreset_entry_holds_its_rows_once` measures it).
gate "PreparedCoreset has no Vec<Tuple> or Vec<Ratio> field" \
  "$(sed -n '/^pub struct PreparedCoreset {/,/^}/p' crates/core/src/coreset/prepared.rs | grep -cE 'Vec<(Tuple|Ratio)>')" -eq 0
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
# key distance is evaluated in two places, the gap re-scan of gaps.rs
# and `Points::dist_f64` in mod.rs, which an insert's re-homing and the
# refine scan read and the selection's sweep reads only when there is no
# column, so no gaps (tests/coreset_kernel_matches_pairwise.rs pins the
# answers, not that no all-n sweep runs beside the gaps).
gate "key_gap_f64 called twice under coreset/" "$(nontest $(rs crates/core/src/coreset) | calls 'key_gap_f64(')" -eq 2
gate "…once in gaps.rs" "$(nontest crates/core/src/coreset/gaps.rs | calls 'key_gap_f64(')" -eq 1
gate "…and once in mod.rs" "$(nontest crates/core/src/coreset/mod.rs | calls 'key_gap_f64(')" -eq 1

# --- CI runs what it names --------------------------------------------
# GitHub reads the workflow with a YAML loader, so a step name with a
# stray `: ` in it drops every job without a word. Load it the same way
# and check the job set against this list; a missing python3 or yaml
# module fails the gate, never skips it. Each `cargo test` invocation
# goes to the resolver below as `job<TAB>step<TAB>arg<TAB>arg…`.
ci_jobs="build-test server delta-conformance relquery-conformance repro-and-micro-benches
e2e-adapter service chaos-conformance crash-recovery lint docs"
ci_steps=$(mktemp)
trap 'rm -f "$ci_steps"' EXIT
python3 - $ci_jobs > "$ci_steps" <<'PY'
import shlex, sys
try:
    import yaml
except ImportError:
    sys.exit("gate failed: ci.yml loads with a YAML loader (python3 has no yaml module)")
try:
    with open(".github/workflows/ci.yml") as f:
        jobs = yaml.safe_load(f)["jobs"]
except Exception as e:
    sys.exit("gate failed: ci.yml loads with a YAML loader (%s)" % str(e).replace("\n", " "))
print("loaded")
want = sorted(sys.argv[1:])
for job, spec in jobs.items():
    for step in spec.get("steps", []):
        for line in str(step.get("run", "")).splitlines():
            args = shlex.split(line)
            while args and "=" in args[0] and not args[0].startswith("-"):
                args.pop(0)  # an environment assignment
            if args[:2] == ["cargo", "test"]:
                print("\t".join([job, step.get("name", "")] + args[2:]))
if sorted(jobs) != want:
    print("gate failed: ci.yml's jobs are the list in ci/gates.sh (got %s, want %s)"
          % (" ".join(sorted(jobs)), " ".join(want)), file=sys.stderr)
    sys.exit(1)
PY
case $? in
  0) ;;
  127) echo "gate failed: ci.yml loads with a YAML loader (no python3)" >&2; fail=1; : > "$ci_steps" ;;
  *) fail=1 ;;
esac

# --- Docs that cannot drift -------------------------------------------
# The architecture map only shrinks, like the `pub` counts: lower the
# number when the file does; never raise it.
gate "docs/ARCHITECTURE.md is at most 495 lines" "$(wc -l < docs/ARCHITECTURE.md)" -le 495
# Every CHANGES.md entry keeps the condensed shape; run logs live in git.
perl -CSD -lne '
  print "gate failed: CHANGES.md:$. is longer than 120 characters" and $bad++ if length > 120;
  ($at, $n) = ($., 0) if /^- PR/;
  print "gate failed: CHANGES.md:$at entry is longer than 25 lines" and $bad++ if $at && ++$n == 26;
  END { exit($bad ? 1 : 0) }' CHANGES.md >&2 || fail=1
# ROADMAP items are renumbered at every re-anchor: code, docs and CI name
# the item, not its number. (e2e/ is the benchmark's and changes only in
# a benchmark PR.)
numbered=$(git grep -nE 'ROADMAP (items? )?[0-9]' -- Cargo.toml README.md .claude .github ci crates docs examples src tests)
if test -n "$numbered"; then
  echo "$numbered" | sed 's/^/gate failed: a ROADMAP item number in code, docs or CI: /' >&2
  fail=1
fi
# Every code reference in the docs resolves (e2e/README.md is the
# benchmark's):
#   * a backticked `path.rs`, `path.rs:N` or `path.rs:N-M` is a tracked
#     file whose path ends that way and has at least N (and M) lines;
#     `path.rs::f` also needs a `fn f` in it;
#   * a backticked `Type::item` on a struct, enum, trait or type defined
#     under crates/ or src/ names a fn, const, type, field or variant of
#     that type: in its body, an impl block for it or a trait it
#     implements (for a type alias, anywhere in the workspace). Paths on
#     std types are out of scope;
#   * a test a `**Pinned by**` paragraph cites is a test file, or a fn or
#     mod in a tests/ directory or below a `#[cfg(test)]`;
#   * a module path `core::a::b` or `paper::a::b` (the files of
#     crates/core/src and crates/paper/src) walks modules that exist, and
#     the first segment that is no module, or each of a closing `{x, y}`,
#     is an item that module defines or re-exports.
# PAPER_MAP's **Gone** rows name deleted items on purpose and are skipped.
#
# The same tables resolve the workflow's `cargo test` invocations:
#   * each `-p`, `--test` and each positional filter or `--skip` value
#     names a package, a test file of it, or a test fn or mod in the
#     package and target the step selects (a filter matches a test's
#     path from a `::` boundary, as a prefix: libtest's own rule, minus
#     matches inside a name);
#   * each file under a tests/ directory runs: a test target is named
#     by a step's `--test` or run by an unfiltered step over all of its
#     package's targets, and a file below it is a `mod` of one.
CI_STEPS=$ci_steps perl -CSD - docs/*.md README.md .claude/skills/verify/SKILL.md >&2 <<'PERL' || fail=1
use strict;
use warnings;
my @tracked = split /\n/, qx(git ls-files);
# %members: type or trait -> the names defined directly in its body or in
# an impl block for it; %traits: type -> traits it implements.
# %items_in: file -> the fns, consts, types and modules it defines and
# the names its `pub use` items re-export.
my (%len, %types, %aliases, %members, %traits, %defs, %tests, %fns_in, %items_in);
# Packages by directory ('' is the root); %paths: package -> target
# (`lib`, `test:NAME`, or `sub:DIR` for a file below tests/) -> the
# `::` paths of the test fns and mods defined there; %has: package ->
# its targets; %incl: package -> DIR -> the test targets that `mod DIR;` it;
# %decl: file -> the `mod NAME;` it declares.
my (%pkg_at, %paths, %incl, %has, %decl);
for my $toml (grep { m{(^|/)Cargo\.toml$} && !m{^e2e/} } @tracked) {
  open my $fh, '<', $toml or next;
  my $in_package;
  while (<$fh>) {
    $in_package = /^\[package\]/ if /^\[/;
    next unless $in_package && /^name\s*=\s*"([^"]+)"/;
    my $name = $1;
    (my $dir = $toml) =~ s{/?Cargo\.toml$}{};
    $pkg_at{$dir} = $name;
    last;
  }
}
# The package, target and module path a source file compiles into.
sub target_of {
  my $f = shift;
  my ($dir) = sort { length $b <=> length $a } grep { $_ eq '' || index($f, "$_/") == 0 } keys %pkg_at;
  return unless defined $dir;
  my $rel = $dir eq '' ? $f : substr $f, length($dir) + 1;
  return ($pkg_at{$dir}, "test:$1", '') if $rel =~ m{^tests/(\w+)\.rs$};
  return ($pkg_at{$dir}, "sub:$1", join '::', $1, grep { $_ ne 'mod' } split m{/}, $2) if $rel =~ m{^tests/(\w+)/(.*)\.rs$};
  return if $rel =~ m{^src/(main\.rs|bin/)} || $rel !~ m{^src/(.*)\.rs$};
  return ($pkg_at{$dir}, 'lib', join '::', grep { $_ ne 'mod' && $_ ne 'lib' } split m{/}, $1);
}
for my $f (grep { /\.rs$/ } @tracked) {
  open my $fh, '<', $f or next;
  my $test = $f =~ m{(^|/)tests/};
  my ($pkg, $target, $modpath) = $f =~ m{^e2e/} ? () : target_of($f);
  $has{$pkg}{$target} = 1 if defined $target;
  my ($depth, $parens, $pending, $pending_mod, $reexport, @owners, @mods) = (0, 0, 0);
  while (my $l = <$fh>) {
    $len{$f}++;
    next if $f =~ m{^e2e/};
    $test = 1 if $l =~ /#\[cfg\(test\)\]/;
    (my $code = $l) =~ s/r#*"[^"]*"#*|"(?:\\.|[^"\\])*"|'(?:\\.|[^'\\])'//g;
    $code =~ s{//.*}{};
    while ($code =~ /\b(const\s+fn|fn|const|static|type|mod)\s+(\w+)/g) {
      my ($kind, $name) = ($1, $2);
      $defs{$name} = $fns_in{$f}{$name} = $items_in{$f}{$name} = 1;
      $tests{$name} = 1 if $test;
      push @{ $paths{$pkg}{$target} }, join '::', grep { length } $modpath, (map { $_->[0] } @mods), $name
        if $test && defined $target && ($kind eq 'fn' || $kind eq 'mod');
    }
    $reexport = 1 if $code =~ /^\s*pub use\b/;
    if ($reexport) {
      $items_in{$f}{$1} = 1 while $code =~ /\b(\w+)\b/g;
      $reexport = 0 if $code =~ /;/;
    }
    $pending_mod = $1 if $code =~ /\bmod\s+(\w+)\s*\{/;
    if ($code =~ /^\s*(?:pub(?:\([^)]*\))?\s+)?mod\s+(\w+)\s*;/) {
      my $name = $1;
      $decl{$f}{$name} = 1;
      $incl{$pkg}{$name}{$target} = 1 if defined $target && $target =~ /^test:/;
    }
    if ($code =~ /^\s*(?:pub(?:\([^)]*\))?\s+)?(struct|enum|trait|type|union)\s+([A-Z]\w*)/) {
      my $kind;
      ($kind, $pending) = ($1, $2);
      $types{$pending} = $items_in{$f}{$pending} = 1 if $f =~ m{^(crates|src)/};
      $aliases{$pending} = 1 if $kind eq 'type';
    } elsif ($code =~ /^\s*(?:unsafe\s+)?impl\b(.*)/) {
      (my $head = $1) =~ s/\s*\{.*//;
      1 while $head =~ s/<[^<>]*>//g;
      $head =~ s/\bwhere\b.*//;
      my @path = $head =~ /([\w:]+)\s+for\s+(?:dyn\s+)?([\w:]+)/ ? ($1, $2) : ($head =~ /([\w:]+)/);
      s/.*::// for @path;
      $traits{$path[1]}{$path[0]} = 1 if @path == 2;
      $pending = $path[-1];
    }
    my $owner = @owners && $owners[-1][1] == $depth && !$parens ? $owners[-1][0] : undef;
    if (defined $owner) {
      $members{$owner}{$1} = 1 while $code =~ /\b(?:const\s+fn|fn|const|static|type)\s+(\w+)/g;
      $members{$owner}{$1} = 1 if $code =~ /^\s*(?:pub(?:\([^)]*\))?\s+)?(\w+)\s*:(?!:)/;  # a field
      $members{$owner}{$1} = 1 if $code =~ /^\s*([A-Z]\w*)\s*(?:[({,=]|$)/;               # a variant
    }
    for my $c ($code =~ /[{}();]/g) {
      if ($c eq '{') {
        $depth++;
        push @owners, [$pending, $depth] if defined $pending;
        push @mods, [$pending_mod, $depth] if defined $pending_mod;
        undef $pending;
        undef $pending_mod;
      } elsif ($c eq '}') {
        pop @owners if @owners && $owners[-1][1] == $depth;
        pop @mods if @mods && $mods[-1][1] == $depth;
        $depth--;
      }
      elsif ($c eq '(') { $parens++ }
      elsif ($c eq ')') { $parens-- if $parens }
      else { undef $pending }
    }
  }
}
for (@tracked) { $tests{$1} = 1 if m{(?:^|/)tests/(\w+)(?:\.rs|/mod\.rs)$} }
# `a`, `{a, b}` or `{a(x), b}` -> the names a, b.
sub items { my $s = shift; $s =~ s/^\{(.*)\}$/$1/; map { /^\s*(\w+)/ ? $1 : () } split /,/, $s }
my $bad = 0;
for my $doc (@ARGV) {
  open my $fh, '<', $doc or die "$doc: $!";
  my @lines = <$fh>;
  my ($fence, $pinned, @pin, @gone) = (0, 0);
  for my $i (0 .. $#lines) {  # blank fenced blocks; mark pin paragraphs and Gone rows
    my $marker = $lines[$i] =~ /^\s*```/;
    $fence = !$fence if $marker;
    $lines[$i] = "\n" if $fence || $marker;
    $pinned = 1 if $lines[$i] =~ /^\*\*Pinned by/;
    $pinned = 0 if $lines[$i] =~ /^\s*$/;
    ($pin[$i + 1], $gone[$i + 1]) = ($pinned, $lines[$i] =~ /\*\*Gone/);
  }
  my $text = join '', @lines;
  while ($text =~ /`([^`]+)`/g) {
    my $line = 1 + (substr($text, 0, $-[0]) =~ tr/\n//);
    next if $gone[$line];
    (my $s = $1) =~ s/\s+/ /g;
    my $fail = sub { print "gate failed: doc reference $doc:$line `$s` ($_[0])\n"; $bad++ };
    if ($s =~ m{^([\w./-]+\.rs)(?::(\d+)(?:-(\d+))?)?(?:::(.+))?$}) {
      my ($path, $n, $m, $fns) = ($1, $2, $3, $4);
      my @files = grep { $_ eq $path || m{/\Q$path\E$} } keys %len;
      unless (@files) { $fail->("no tracked file ends with $path"); next }
      my ($max) = sort { $b <=> $a } map { $len{$_} } @files;
      for (grep { defined && $_ > $max } $n, $m) { $fail->("$path has $max lines") }
      for my $fn (defined $fns ? items($fns) : ()) {
        $fail->("no fn $fn in $path") unless grep { $fns_in{$_}{$fn} } @files;
      }
      next;
    }
    while ($s =~ /\b([A-Z]\w*)::(\{[^}]*\}|\w+)/g) {
      my $type = $1;
      next unless $types{$type};
      for my $item (items($2)) {
        next if $aliases{$type} ? $defs{$item}
          : grep { $members{$_}{$item} } $type, keys %{ $traits{$type} || {} };
        $fail->("$type has no fn, const, type, field or variant $item");
      }
    }
    if ($s =~ /^(core|paper)::(.+)$/) {
      my ($mod, $rest) = ("crates/$1/src", $2);
      my ($path, $list) = $rest =~ /^(?:(.*?)::)?(\{[^}]*\})$/ ? ($1 // '', $2) : ($rest);
      my $file = "$mod/lib.rs";
      my $sub = sub {  # the file of module $_[0] below $mod, if any
        my ($f) = grep { $len{$_} } "$mod/$_[0].rs", "$mod/$_[0]/mod.rs";
        return $f;
      };
      my $item;
      for my $seg (split /::/, $path) {
        last if $seg eq '*';
        if (my $f = $sub->($seg)) { ($file, $mod) = ($f, "$mod/$seg"); next }
        $fail->("$file has no module or item $seg") unless $items_in{$file}{$seg};
        $item = 1;
        last;
      }
      for my $name ($item || !defined $list ? () : items($list)) {
        $fail->("$file has no module or item $name") unless $sub->($name) || $items_in{$file}{$name};
      }
    }
    if ($pin[$line] && $s =~ /^[a-z_]\w*(?:::(?:[a-z_]\w*|\{[\w, ]+\}))*$/) {
      my ($last) = $s =~ /([^:]+)$/;
      for (items($last)) { $fail->("no test fn, test mod or test file $_") unless $tests{$_} }
    }
  }
}
# A file below tests/ is compiled into the targets that `mod` it.
for my $pkg (keys %paths) {
  for my $sub (map { /^sub:(\w+)$/ ? $1 : () } keys %{ $paths{$pkg} }) {
    push @{ $paths{$pkg}{$_} }, @{ $paths{$pkg}{"sub:$sub"} } for keys %{ $incl{$pkg}{$sub} || {} };
  }
}
# Whether a file under a tests/ directory is compiled: a test target is;
# any other file is when its parent module's file is and declares it.
sub compiled {
  my $f = shift;
  return 1 if $f =~ m{(^|/)tests/\w+\.rs$};
  (my $path = $f) =~ s{(/mod)?\.rs$}{};
  my ($dir, $name) = $path =~ m{^(.*)/(\w+)$} or return 0;
  my @parents = $dir =~ m{(^|/)tests$} ? grep { m{^\Q$dir\E/\w+\.rs$} } @tracked : ("$dir/mod.rs", "$dir.rs");
  return grep { $decl{$_}{$name} && compiled($_) } @parents;
}
# The workflow's `cargo test` steps (`loaded` first, once ci.yml loaded).
open my $sf, '<', $ENV{CI_STEPS} // '' or die "CI_STEPS: $!";
if ((<$sf> // '') eq "loaded\n") {
  my $root = $pkg_at{''};
  my (%covered, @wide);
  while (my $line = <$sf>) {
    chomp $line;
    my ($job, $step, @args) = split /\t/, $line;
    my $where = "ci.yml $job step '$step'";
    my ($libtest, $all, $exact, @pkgs, @targets, @filters) = (0, 0, 0);
    while (@args) {
      my $arg = shift @args;
      if ($arg eq '--') { $libtest = 1 }
      elsif ($libtest) {
        if ($arg eq '--skip') { push @filters, shift @args }
        elsif ($arg eq '--exact') { $exact = 1 }
        elsif ($arg =~ /^--(test-threads|format|color|logfile)$/) { shift @args }
        elsif ($arg !~ /^-/) { push @filters, $arg }
      }
      elsif ($arg eq '-p' || $arg eq '--package') { push @pkgs, shift @args }
      elsif ($arg eq '--workspace' || $arg eq '--all') { $all = 1 }
      elsif ($arg eq '--lib') { push @targets, 'lib' }
      elsif ($arg eq '--doc') { push @targets, 'doc' }
      elsif ($arg eq '--test') { push @targets, 'test:' . shift @args }
      elsif ($arg =~ /^(--(bin|bench|example|features|manifest-path|target|target-dir|jobs|profile|color|message-format|exclude)|-[jF])$/) { shift @args }
      elsif ($arg !~ /^-/) { push @filters, $arg }
    }
    @pkgs = $all ? sort values %pkg_at : @pkgs ? @pkgs : ($root);
    my $fail = sub { print "gate failed: $where: $_[0]\n"; $bad++ };
    my %known = map { $_ => 1 } values %pkg_at;
    $known{$_} or $fail->("-p $_ names no package") for @pkgs;
    for my $t (grep { /^test:/ } @targets) {
      $fail->("--test " . substr($t, 5) . " names no test file of @pkgs") unless grep { $has{$_}{$t} } @pkgs;
    }
    my @selected = map { my $p = $_; map { [$p, $_] } @targets ? @targets : grep { !/^sub:/ } keys %{ $has{$p} || {} } } @pkgs;
    my @candidates = map { @{ $paths{$_->[0]}{$_->[1]} || [] } } @selected;
    for my $f (@filters) {
      next if grep { $exact ? $_ eq $f : /(?:^|::)\Q$f\E/ } @candidates;
      $fail->("filter `$f` names no test fn or mod in @pkgs (" . (join(' ', @targets) || 'all targets') . ")");
    }
    push @wide, "$job '$step'" . (@targets || @filters ? ' runs a subset' : '') if $all;
    for (@selected) {
      my ($p, $t) = @$_;
      $covered{$p}{$t} = 1 if $t =~ /^test:/ && (@targets || !@filters);
    }
  }
  my $wide = @wide ? join('; ', @wide) : 'none';
  for my $f (grep { m{(^|/)tests/} && /\.rs$/ && !m{^e2e/} } @tracked) {
    my ($pkg, $target) = target_of($f);
    next unless defined $target;
    if ($target =~ /^sub:/) {
      next if compiled($f);
      print "gate failed: every test file runs: $f is compiled by no test target (its parent module declares no `mod` of it)\n";
    } else {
      next if $covered{$pkg}{$target};
      print "gate failed: every test file runs: $f is named by no `cargo test` step and no unfiltered "
        . "step runs all of ${pkg}'s targets (workspace-wide steps: $wide)\n";
    }
    $bad++;
  }
}
exit($bad ? 1 : 0);
PERL

if test "$fail" -eq 0; then echo "ci/gates.sh: all gates hold"; fi
exit "$fail"
