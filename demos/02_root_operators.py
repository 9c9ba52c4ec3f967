"""The root operators e_i and f_i via column tagging and cancellation."""

from gallery_crystals import (
    e,
    epsilon,
    f,
    format_gallery,
    i_signature,
    parse_gallery,
    phi,
)

star = parse_gallery("3|1,2|5|2", 5)
print("gallery:", format_gallery(star))

for i in (1, 2):
    tags = i_signature(star, i)
    print(f"\ni = {i}")
    print("  display tags      :", tags)
    print("  epsilon, phi      :", epsilon(star, i), phi(star, i))
    lowered = f(star, i)
    print("  f_i               :", format_gallery(lowered) if lowered else "0")
    raised = e(star, i)
    print("  e_i               :", format_gallery(raised) if raised else "0")

# f and e are partial inverses
lowered = f(star, 2)
print("\ne_2(f_2(gallery)) == gallery:", e(lowered, 2) == star)

# iterating f_1 down an SL_2 chain
chain = parse_gallery("1|1|1", 2)
print("\nSL_2 chain from", format_gallery(chain))
current = chain
while current is not None:
    print("  ", format_gallery(current))
    current = f(current, 1)
