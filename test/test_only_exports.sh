#!/bin/sh
# Lists the values lib/*/*.mli export that no tool reaches.  A value
# counts as reached when a .ml file under lib/ (other than its own
# module's), bin/, bench/, benchmark/ or examples/ names it qualified,
# as Module.name.  Each listed value's doc comment must say why tests
# need it exported, after the word "Test-only".  Exits 1 when more
# than the ceiling below are listed or one lacks that note.
#
# Usage, from the repository root: sh test/test_only_exports.sh
ceiling=26
total=0
count=0
undocumented=0
for mli in lib/*/*.mli; do
  base=$(basename "$mli" .mli)
  mod=$(printf '%s' "$base" | awk '{ print toupper(substr($0, 1, 1)) substr($0, 2) }')
  for v in $(sed -n "s/^val \([a-z_][A-Za-z0-9_']*\).*/\1/p" "$mli"); do
    total=$((total + 1))
    if grep -rqw --include='*.ml' --exclude="$base.ml" "$mod\.$v" \
      lib bin bench benchmark examples; then
      continue
    fi
    count=$((count + 1))
    # The val's lines and its doc comment, up to the comment's end.
    doc=$(awk -v v="$v" '$0 ~ "^val " v "[ :]" { on = 1 } on && /^$/ { exit }
      on { print } on && /\*\)/ { exit }' "$mli")
    if printf '%s' "$doc" | tr -s '\n ' '  ' | grep -q 'Test-only'; then
      echo "$mod.$v"
    else
      echo "$mod.$v  (no Test-only note in its doc comment)"
      undocumented=$((undocumented + 1))
    fi
  done
done
echo "exports: $total, test-only: $count (ceiling $ceiling), undocumented: $undocumented"
[ "$count" -le "$ceiling" ] && [ "$undocumented" -eq 0 ]
