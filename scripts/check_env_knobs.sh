#!/usr/bin/env bash
# Every environment variable the program reads must be documented:
# list each literal getenv("KODAN_...") name under src/, tools/ and
# bench/, and fail if README.md does not name it (see its "Environment"
# table).
#
# Usage:
#   scripts/check_env_knobs.sh
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

knobs="$(grep -rhoE 'getenv\("KODAN_[A-Z0-9_]+"\)' \
             "$REPO_ROOT/src" "$REPO_ROOT/tools" "$REPO_ROOT/bench" |
         sed -E 's/getenv\("([A-Z0-9_]+)"\)/\1/' | sort -u)"
if [[ -z "$knobs" ]]; then
    echo "check_env_knobs: no getenv(\"KODAN_...\") reads found" >&2
    exit 1
fi

missing=0
count=0
for knob in $knobs; do
    count=$((count + 1))
    if ! grep -qw -- "$knob" "$REPO_ROOT/README.md"; then
        echo "check_env_knobs: $knob is read but not documented in" \
             "README.md" >&2
        missing=$((missing + 1))
    fi
done
if [[ "$missing" -ne 0 ]]; then
    exit 1
fi
echo "check_env_knobs: all $count KODAN_* environment variables are" \
     "documented in README.md"
