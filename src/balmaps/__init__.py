"""balmaps: balanced 4-valent sphere maps and generic branched covers.

Decides whether an oriented 4-valent diagram on the sphere is balanced
(Jordan faces, equal face counts per color, and blue-majority on the left
of every blue-left cycle), constructs the corresponding branched-cover
monodromy, enumerates and classifies all covers at small degree, runs the
tree bijection behind the cover count, and decomposes diagrams into
quadratic and hyperbolic pieces.

The submodules are the public surface: import each step from its module,
for example ``from balmaps import realize``.
"""

__version__ = "0.1.0"
