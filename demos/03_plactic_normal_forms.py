"""Plactic equivalence and normalization to semistandard Young tableaux.

Insertion works on the gallery word read last letter first and drops the
full columns 1..n of its tableau, which is what makes the staircase word
collapse to the empty tableau.
"""

from itertools import product

from gallery_crystals import (
    equivalent,
    format_gallery,
    gallery_from_word,
    is_ssyt,
    normal_form,
    parse_gallery,
    rsk_insert,
)

for text in ["1,2|1", "1|2|1", "1|2|1|3|2|1"]:
    g = parse_gallery(text, 3)
    print(f"normal_form({text!r:16}) = {format_gallery(normal_form(g))!r}")

staircase = gallery_from_word((1, 2, 3), 3)
print("\nstaircase word gallery:", format_gallery(staircase))
# insertion drops the full column 1,2,3 of its tableau
print("insertion of 1 2 3    :", repr(format_gallery(rsk_insert((1, 2, 3), 3))))
print("insertion of 1 2 1 2 3:", repr(format_gallery(rsk_insert((1, 2, 1, 2, 3), 3))))
print("normal form is empty  :", normal_form(staircase).columns == ())

print("\nis_ssyt('1,2|1') :", is_ssyt(parse_gallery("1,2|1", 3)))
print("is_ssyt('1|1,2') :", is_ssyt(parse_gallery("1|1,2", 3)), "(display column lengths must not increase)")

print("\nequivalent('3|1,2|5|2', '3|2|1|5|2') :", equivalent(
    parse_gallery("3|1,2|5|2", 5), parse_gallery("3|2|1|5|2", 5)))

# words of one plactic class share their normal form, so grouping short
# words by it lists the classes (each word, and each class, in shortlex order)
print("\nplactic classes of words of length <= 3 over {1,2,3}:")
classes = {}
for length in range(4):
    for w in product((1, 2, 3), repeat=length):
        classes.setdefault(normal_form(gallery_from_word(w, 3)), []).append(w)
for cls in classes.values():
    if len(cls) > 1:
        print("  ", " ~ ".join("".join(map(str, w)) or "()" for w in cls))
