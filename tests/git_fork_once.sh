#!/bin/sh
# `ssr_cli run` asks git for the revision once per process: the events.jsonl
# header and the bundle manifest share obs::git_revision()'s first answer.
# A fake git first on PATH logs every call.
#
#   git_fork_once.sh <ssr_cli>
#
# Run by ctest (cli_run_forks_git_once); exits non-zero on failure.
set -eu

CLI=$1

WORK=$(mktemp -d git_fork_once.XXXXXX)
WORK=$(cd "$WORK" && pwd)
cleanup() { rm -rf "$WORK"; }
trap cleanup EXIT INT TERM

mkdir "$WORK/bin"
cat > "$WORK/bin/git" <<FAKE
#!/bin/sh
echo "\$*" >> "$WORK/git.log"
echo 0123456789abcdef0123456789abcdef01234567
FAKE
chmod +x "$WORK/bin/git"
: > "$WORK/git.log"

printf '{"schema":"ssr.scenario","schema_version":1,"name":"git_once","protocol":"optimal","n":16,"trials":1,"seed":1}\n' \
  > "$WORK/scenario.json"
PATH="$WORK/bin:$PATH" "$CLI" run "$WORK/scenario.json" --out "$WORK/bundle" \
  > /dev/null
calls=$(wc -l < "$WORK/git.log")
if [ "$calls" -ne 1 ]; then
  echo "FAIL: ssr_cli run called git $calls times, not once:" >&2
  cat "$WORK/git.log" >&2
  exit 1
fi
grep -q 0123456789abcdef "$WORK/bundle/bundle_manifest.json" ||
  { echo "FAIL: the manifest does not carry git's answer" >&2; exit 1; }
echo "ok   one git call"
