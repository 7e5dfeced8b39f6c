#!/usr/bin/env bash
# Docs gate (run from anywhere; CI's docs job runs it on every push):
#   1. every relative markdown link in README.md and docs/*.md must resolve
#      to an existing file (anchors are stripped; http(s) links skipped);
#   2. every HTTP route registered in src/server/json_api.cc must appear in
#      docs/HTTP_API.md, so new endpoints cannot ship undocumented;
#   3. every metric family name ("cpd_..." string literal in src/**/*.cc)
#      must appear in the docs/OBSERVABILITY.md catalog, so new metrics
#      cannot ship undocumented;
#   4. every --flag in README.md and docs/*.md must be accepted by some
#      tools/cpd_*.cc (its kKnownFlags set), so docs cannot keep naming a
#      removed flag. cmake/ctest flags are allowlisted;
#   5. every bench_<name> binary named in README.md, docs/*.md, the verify
#      skill notes or the CI workflow must have its source bench/<name>.cc
#      (CMake builds one bench_<name> per bench/*.cc), so docs and CI
#      cannot keep running a deleted bench driver;
#   6. every repo path (src/, tests/, tools/, bench/, examples/, perfbench/)
#      inside a `code span` of README.md, docs/*.md or the verify skill
#      notes must exist — as written, or as <path>.cc for a binary named
#      after its source — so docs cannot keep pointing at a deleted file.
#      Glob and placeholder spellings (*, <name>, {a,b}) are skipped.
#   7. every suite named in a ctest -R '...' regex of the CI workflow or
#      the verify skill notes must have its source tests/<name>.cc (CMake
#      registers one ctest per tests/*_test.cc), so a sanitizer job cannot
#      quietly shrink: an unknown name in the regex matches nothing.
#   8. every --flag a tools/cpd_*.cc names in its usage text or comments
#      must be in that file's own kKnownFlags, so a deleted flag cannot
#      linger in a tool's usage line (gate 4 checks the docs against the
#      union of all tools; this checks each tool against itself).
#   9. every `cpd_...` family in the first column of a catalog table in
#      docs/OBSERVABILITY.md must appear as a "cpd_..." string literal in
#      src/**/*.cc (the reverse of gate 3), so the catalog cannot keep
#      documenting a family the code no longer registers or renders.
# Exits non-zero listing every violation.

set -u
cd "$(dirname "$0")/.."

failures=0

# ----- 1. intra-repo markdown links -----
while IFS= read -r file; do
  dir=$(dirname "$file")
  # Extract (target) of [text](target), tolerating several links per line.
  grep -oE '\]\([^)]+\)' "$file" | sed -e 's/^](//' -e 's/)$//' |
  while IFS= read -r target; do
    case "$target" in
      http://*|https://*|mailto:*) continue ;;
    esac
    path="${target%%#*}"            # Strip the anchor.
    [ -z "$path" ] && continue      # Pure same-file anchor.
    if [ ! -e "$dir/$path" ]; then
      echo "BROKEN LINK: $file -> $target"
      exit 1                        # Subshell: flag via exit status.
    fi
  done || failures=1
done < <(ls README.md docs/*.md 2>/dev/null)

# ----- 2. route coverage in docs/HTTP_API.md -----
api_doc=docs/HTTP_API.md
if [ ! -f "$api_doc" ]; then
  echo "MISSING: $api_doc"
  failures=1
else
  # Route patterns are the second string literal of server->Handle(...).
  routes=$(grep -A1 -E 'server->Handle\(' src/server/json_api.cc |
           grep -oE '"/[^"]*"' | tr -d '"' | sort -u)
  if [ -z "$routes" ]; then
    echo "ERROR: no routes extracted from src/server/json_api.cc" \
         "(did the registration idiom change?)"
    failures=1
  fi
  for route in $routes; do
    if ! grep -qF "$route" "$api_doc"; then
      echo "UNDOCUMENTED ROUTE: $route (registered in" \
           "src/server/json_api.cc, absent from $api_doc)"
      failures=1
    fi
  done
fi

# ----- 3. metric-family coverage in docs/OBSERVABILITY.md -----
obs_doc=docs/OBSERVABILITY.md
if [ ! -f "$obs_doc" ]; then
  echo "MISSING: $obs_doc"
  failures=1
else
  # Family names are string literals at their registration / exposition
  # sites (.cc only; headers mention names in prose comments).
  metrics=$(grep -rhoE '"cpd_[a-z0-9_]+"' --include='*.cc' src |
            tr -d '"' | sort -u)
  if [ -z "$metrics" ]; then
    echo "ERROR: no metric families extracted from src/**/*.cc" \
         "(did the registration idiom change?)"
    failures=1
  fi
  for metric in $metrics; do
    if ! grep -qF "$metric" "$obs_doc"; then
      echo "UNDOCUMENTED METRIC: $metric (registered in src, absent from" \
           "$obs_doc)"
      failures=1
    fi
  done
fi

# ----- 4. documented --flags exist in some tool -----
# Flags of the build commands the docs quote (cmake --build/--target,
# ctest --output-on-failure), not of any cpd_* tool.
build_flags="build output target"
known_flags=$(for tool in tools/cpd_*.cc; do
                sed -n '/kKnownFlags = {/,/};/p' "$tool"
              done | grep -oE '"[a-z0-9_]+"' | tr -d '"' | sort -u)
if [ -z "$known_flags" ]; then
  echo "ERROR: no kKnownFlags extracted from tools/cpd_*.cc" \
       "(did the flag-set idiom change?)"
  failures=1
fi
doc_flags=$(grep -ohE '(^|[^A-Za-z0-9_-])--[a-z][a-z0-9_]*' README.md docs/*.md |
            sed -E 's/^.*--//' | sort -u)
for flag in $doc_flags; do
  if ! printf '%s\n' $known_flags $build_flags | grep -qxF "$flag"; then
    echo "UNKNOWN FLAG: --$flag (documented, but no tools/cpd_*.cc accepts it)"
    failures=1
  fi
done

# ----- 5. named bench binaries have a bench/<name>.cc -----
# A match preceded by "." (perfbench's .bench_build directory) or followed
# by a file extension (bench_common.h) names a path, not a binary.
bench_docs=$(ls README.md docs/*.md .claude/skills/verify/SKILL.md \
               .github/workflows/ci.yml 2>/dev/null)
bench_names=$(grep -ohE '(^|[^A-Za-z0-9_.])bench_[a-z0-9_]+(\.[a-z]+)?' \
                $bench_docs | sed -E 's/^[^b]*//' | grep -vE '\.[a-z]+$' |
              sort -u)
for name in $bench_names; do
  if [ ! -f "bench/${name#bench_}.cc" ]; then
    echo "UNKNOWN BENCH: $name (named in the docs or CI, but" \
         "bench/${name#bench_}.cc does not exist)"
    failures=1
  fi
done

# ----- 6. backticked repo paths exist -----
path_docs=$(ls README.md docs/*.md .claude/skills/verify/SKILL.md 2>/dev/null)
doc_paths=$(grep -ohE '`[^`]+`' $path_docs |
            grep -oE '(^|[^A-Za-z0-9_./-])(src|tests|tools|bench|examples|perfbench)/[A-Za-z0-9_./*<>{},-]*' |
            sed -E -e 's/^[^a-z]//' -e 's/[.,]+$//' | grep -v '[*<{]' | sort -u)
for path in $doc_paths; do
  if [ ! -e "$path" ] && [ ! -e "$path.cc" ]; then
    echo "STALE PATH: $path (named in the docs, but neither it nor" \
         "$path.cc exists)"
    failures=1
  fi
done

# ----- 7. suites in ctest -R regexes have a tests/<name>.cc -----
regex_docs=$(ls .github/workflows/ci.yml .claude/skills/verify/SKILL.md \
               2>/dev/null)
suite_names=$(grep -ohE -- "-R +['\"][^'\"]*['\"]" $regex_docs |
              sed -E "s/^-R +['\"]//; s/['\"]$//" | tr '|' '\n' |
              sed -E 's/^\^//; s/\$$//' | sort -u)
if [ -z "$suite_names" ] &&
   grep -qE -- '(-R|--tests-regex) ' $regex_docs; then
  echo "ERROR: a ctest regex is present but no suite names were extracted" \
       "(did the -R '...' idiom change?)"
  failures=1
fi
for name in $suite_names; do
  if [ ! -f "tests/$name.cc" ]; then
    echo "UNKNOWN SUITE: $name (named in a ctest -R regex, but" \
         "tests/$name.cc does not exist)"
    failures=1
  fi
done

# ----- 8. flags a tool names are flags that tool accepts -----
for tool in tools/cpd_*.cc; do
  tool_flags=$(sed -n '/kKnownFlags = {/,/};/p' "$tool" |
               grep -oE '"[a-z0-9_]+"' | tr -d '"' | sort -u)
  named_flags=$(grep -ohE '(^|[^A-Za-z0-9_-])--[a-z][a-z0-9_]*' "$tool" |
                sed -E 's/^.*--//' | sort -u)
  for flag in $named_flags; do
    if ! printf '%s\n' $tool_flags | grep -qxF "$flag"; then
      echo "UNKNOWN TOOL FLAG: --$flag (named in $tool, absent from its" \
           "kKnownFlags)"
      failures=1
    fi
  done
done

# ----- 9. cataloged metric families exist in src -----
if [ -f "$obs_doc" ]; then
  cataloged=$(grep -oE '^\| *`cpd_[a-z0-9_]+` *\|' "$obs_doc" |
              grep -oE 'cpd_[a-z0-9_]+' | sort -u)
  if [ -z "$cataloged" ]; then
    echo "ERROR: no catalog families extracted from $obs_doc" \
         "(did the table layout change?)"
    failures=1
  fi
  for metric in $cataloged; do
    if ! grep -rqF --include='*.cc' "\"$metric\"" src; then
      echo "STALE METRIC: $metric (cataloged in $obs_doc, but no" \
           "\"$metric\" literal in src/**/*.cc)"
      failures=1
    fi
  done
fi

if [ "$failures" -ne 0 ]; then
  echo "docs check FAILED"
  exit 1
fi
echo "docs check OK (links resolve, every route, metric both ways, flag," \
     "bench binary, repo path, ctest -R suite and tool flag checked)"
