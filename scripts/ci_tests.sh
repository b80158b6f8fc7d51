#!/usr/bin/env bash
# Prints every (package, test, env, flags) tuple a CI workflow runs, one
# tab-separated line each, sorted:
#
#   scripts/ci_tests.sh [workflow.yml]      (default .github/workflows/ci.yml)
#
# Each `go test` command of each step is expanded with `go list` (its
# packages) and `go test -list` (the top-level tests, examples, fuzz
# targets and benchmarks its -run, -bench and -fuzz patterns select). env
# is the step's env block (KEY=value,...), flags are the command's other
# flags without -v, so two workflows that run the same tests under the same
# configurations print the same set; a step folded into another that
# already runs its tests drops no line:
#
#   comm -23 <(scripts/ci_tests.sh old.yml) <(scripts/ci_tests.sh)   # must be empty
#
# A command that is not `go test` (builds, vet, `go run` smokes, scripts)
# prints as one line with test "-". Patterns are matched as extended
# regular expressions, which agrees with Go's for the alternations and
# anchors the workflow uses.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
workflow="${1:-$root/.github/workflows/ci.yml}"
cd "$root"

# One line per run command: job, step env, command. Block scalars (run: |)
# give one command per line; env may follow run within a step.
steps() {
	awk '
	function flush(   k) {
		for (k = 1; k <= n; k++) printf "%s\t%s\t%s\n", job, (env == "" ? "-" : env), cmd[k]
		n = 0; env = ""; inrun = 0; inenv = 0
	}
	/^  [A-Za-z0-9_-]+:[ \t]*$/ { flush(); job = $1; sub(/:$/, "", job); next }
	/^      - / { flush() }
	{
		line = $0
		if (inrun) {
			if (line ~ /^            [^ ]/) { sub(/^ +/, "", line); cmd[++n] = line; next }
			inrun = 0
		}
		if (inenv) {
			if (line ~ /^          [A-Za-z_][A-Za-z0-9_]*:/) {
				sub(/^ +/, "", line); k = line; sub(/:.*/, "", k); v = line; sub(/^[^:]*:[ \t]*/, "", v)
				gsub(/"/, "", v); env = (env == "" ? "" : env ",") k "=" v; next
			}
			inenv = 0
		}
		if (line ~ /^ +(- )?run: *\|[ \t]*$/) { inrun = 1; next }
		if (line ~ /^ +(- )?run: /) { sub(/^ +(- )?run: */, "", line); cmd[++n] = line; next }
		if (line ~ /^        env: *$/) { inenv = 1; next }
	}
	END { flush() }
	' "$workflow"
}

# names DIR PKG prints every top-level test, example, fuzz target and
# benchmark of PKG (built in DIR), once per package.
declare -A listed
names() {
	local key="$1|$2"
	if [ -z "${listed[$key]+x}" ]; then
		listed[$key]="$(cd "$1" && go test -list . "$2" | grep -E '^(Test|Example|Fuzz|Benchmark)' || true)"
	fi
	printf '%s\n' "${listed[$key]}"
}

# gotest DIR ENV ARGS... prints the tuples of one `go test` command.
gotest() {
	local dir="$1" env="$2"
	shift 2
	local run="" bench="" fuzz="" flags=() pkgs=()
	while [ $# -gt 0 ]; do
		case "$1" in
		-v) ;;
		-run=* | -bench=* | -fuzz=*) set -- "${1%%=*}" "${1#*=}" "${@:2}"; continue ;;
		-run) run="$2"; shift ;;
		-bench) bench="$2"; shift ;;
		-fuzz) fuzz="$2"; shift ;;
		-timeout | -count | -fuzztime | -benchtime | -cpu | -parallel) flags+=("$1=$2"); shift ;;
		-args) flags+=("$@"); break ;;
		-*) flags+=("$1") ;;
		*) pkgs+=("$1") ;;
		esac
		shift
	done
	local f="${flags[*]:-}" pkg
	[ -n "$f" ] || f="-"
	for pkg in $(cd "$dir" && go list "${pkgs[@]}"); do
		names "$dir" "$pkg" | grep -v '^Benchmark' | grep -E -- "${run:-.}" |
			sed "s|^|$pkg\t|; s|\$|\t$env\t$f|" || true
		if [ -n "$bench" ]; then
			names "$dir" "$pkg" | grep '^Benchmark' | grep -E -- "$bench" |
				sed "s|^|$pkg\t|; s|\$|\t$env\t-bench $f|" || true
		fi
		if [ -n "$fuzz" ]; then
			names "$dir" "$pkg" | grep '^Fuzz' | grep -E -- "$fuzz" |
				sed "s|^|$pkg\t|; s|\$|\t$env\t-fuzz $f|" || true
		fi
	done
}

steps | while IFS=$'\t' read -r _ env line; do
	# A command line may be a subshell of `&&`-chained commands, one of
	# them a `cd` that moves the rest; a line with a workflow expression
	# (${{ ... }}) is one command.
	dir="$root"
	line="${line#(}"
	line="${line%)}"
	while [ -n "$line" ]; do
		part="${line%% && *}"
		case "$line" in *'${{'*) part="$line" ;; esac
		if [ "$part" = "$line" ]; then line=""; else line="${line#* && }"; fi
		case "$part" in
		"cd "*) dir="$root/${part#cd }" ;;
		"go test "*)
			eval "args=(${part#go test })"
			gotest "$dir" "$env" "${args[@]}"
			;;
		*)
			where="${dir#"$root"}"
			printf -- '-\t%s%s\t%s\t-\n' "${where:+(in ${where#/}) }" "$part" "$env"
			;;
		esac
	done
done | sort -u
