"""Reference classification data the theorem drivers are checked against.

Each driver id (see :mod:`designgate.theorems`) reproduces a known
classification of the m values for which the minimum-weight support design
of the corresponding family can still be a t-design.  The sets and table
values below are the reference results; ``designgate theorem <id>`` recomputes
everything from scratch and diffs against them.

Two reference entries are *not* reproducible and are kept here verbatim so
the mismatch is reported rather than hidden (see README, "Known
discrepancies"):

* the quotient recorded for the strength-8 u=k gate at family 24m, m=63
  (``THM4_REFERENCE_QUOTIENT``): our exact evaluation of the defining
  moment identity A_s = (u)_s * lambda_s yields a positive integer instead;
  the recorded value is recovered exactly if the top moment A_8 is replaced
  by the bare lambda_8, i.e. it drops the factor (4m+4)_8,
* the family 24m+16 sets at t = 4 and t = 5, which omit m = 23 although
  every lambda level and every default-offset gate (any admissible u, any
  l <= t) passes for it.
"""

from fractions import Fraction

# Family 24m: m with lambda_6 and lambda_7 both nonnegative integers (strength-6
# scan over 1 <= m <= 153); 39 values.
LEMMA1_M = (
    5, 8, 15, 19, 35, 40, 41, 42, 50, 51, 52, 55, 57, 59, 60, 63, 65, 74, 75,
    76, 80, 86, 90, 93, 100, 101, 104, 105, 107, 118, 125, 127, 129, 130, 135,
    143, 144, 150, 151,
)

# Within LEMMA1_M: m whose strength-7 u=k gate quotient is non-integral, so no
# self-orthogonal 7-design with the family's parameters exists; 12 values.
THM2_ELIMINATED = (8, 40, 42, 50, 74, 76, 80, 86, 100, 130, 144, 150)

# Within the remainder: m eliminated by the strength-7 gate at u = k + 4;
# 9 values.
THM3_ELIMINATED = (5, 19, 35, 41, 51, 65, 75, 101, 129)

# Survivors: LEMMA1_M minus the two elimination sets; 18 values.
THM1_SURVIVORS = (
    15, 52, 55, 57, 59, 60, 63, 90, 93, 104, 105, 107, 118, 125, 127, 135,
    143, 151,
)

# Within LEMMA1_M: m with lambda_8 also integral (8-design candidates).
LAMBDA8_CANDIDATES = (8, 42, 63, 75, 130)

# Strength-7 u=k gate quotients F / 645120 for the eliminated m (family 24m).
TABLE1_QUOTIENTS: dict[int, Fraction] = {
    8: Fraction(1569595833, 8),
    40: Fraction(69722676263111828528771787666297086782790166251961, 4),
    42: Fraction(7413717557642396579773804378982932177616748595565925, 2),
    50: Fraction(51322358900999864497776773019002155555828915534612183899278199, 8),
    74: Fraction(int(
        "4826425086761300475471211432388832310639106344039001327412238558724953164678399709995112"
        "5"), 4),
    76: Fraction(int(
        "1729752522331902361960672610693505143217216632547079956724375667422498631054839940590129"
        "1385"), 8),
    80: Fraction(int(
        "2735926956163251349163934164382847359509149969938275077530119649554210001331376285992080"
        "64366065"), 4),
    86: Fraction(int(
        "7441775672567300993698768020803055388930557285779322398149648475271662345939361588331433"
        "82070818871425"), 2),
    100: Fraction(int(
        "1361289868407320005013969576644851173644323050199159145487571385459755916185093498908184"
        "6304372757198545374868637953809"), 8),
    130: Fraction(int(
        "3189707480435553179722174456102031263888330943653476769079966443112832948440626169139465"
        "2221319496059344524071376846899299051945557430274425744716671055"), 8),
    144: Fraction(int(
        "1035070272428284277890857561402251586588512886310681236839638328732304239486911591188586"
        "39575450894139827154262422968053791406366132850642263742190215236965412560306275"), 8),
    150: Fraction(int(
        "2251791376314509322546125572658872402649324513203532486390712693421420438924231254334826"
        "40303802028438247793256844429544681810502004849575476006319668579289958493743350895465"),
        4),
}

# Strength-7 gate quotients at u = 4m + 8 for the eliminated m (family 24m).
TABLE2_QUOTIENTS: dict[int, Fraction] = {
    5: Fraction(9009, 4),
    19: Fraction(10290542185356908976248643, 8),
    35: Fraction(240192525434759794880275676371011296919815805, 8),
    41: Fraction(1229066981776753671012029436288037892461385328646335, 4),
    51: Fraction(836449644579567992045815972312879647652910128602615298771389885, 8),
    65: Fraction(int(
        "729751742076547679821092729174116857457184385106661395981561002630194979775054"
        "5"), 8),
    75: Fraction(int(
        "7131758849931063141943059052599195584602145213990980091936108740133241998228384282543106"
        "09"), 4),
    101: Fraction(int(
        "9554136072132181933335541526880816820634570464534400782829537866733344553036892497209645"
        "8449177337659658397691862895305"), 4),
    129: Fraction(int(
        "2623077879114379456088341818957543990169676106068096658454412021069910259333223193114235"
        "770446444499518305259605168488333726043587913132060022892602625"), 8),
}

# Reference quotient recorded for the strength-8 u=k gate at m = 63
# (family 24m).  NOT reproducible from the moment identities; see module
# docstring.  Kept exactly as recorded.
THM4_REFERENCE_QUOTIENT = Fraction(int(
    "-168095154721367421345343211348534182444064361650535671054024934899033094455189"
    "99"), 1792)

# Family 24m+8 (base strength 3): reference sets per effective strength.
THM51_SETS: dict[int, tuple[int, ...]] = {
    5: (15, 35, 45, 58, 75, 85, 90, 95, 113, 115, 120, 125),
    6: (58, 90, 113),
    7: (58,),
    8: (),
}

# Family 24m+16 (base strength 1): reference sets per effective strength.
# The t = 4 and t = 5 entries omit m = 23; see module docstring.
THM52_SETS: dict[int, tuple[int, ...]] = {
    3: (5, 10, 20, 23, 25, 35, 44, 45, 50, 55, 60, 70, 72, 75, 79, 80, 85, 93,
        95, 110, 118, 120, 121, 123, 125, 130, 142, 144, 145, 149, 150, 155,
        156, 157, 160, 163),
    4: (10, 79, 93, 118, 120, 123, 125, 142),
    5: (79, 93, 118, 120, 123, 125, 142),
    6: (),
}
